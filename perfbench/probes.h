#ifndef WSQ_PERFBENCH_PROBES_H_
#define WSQ_PERFBENCH_PROBES_H_

// Probes the benchmark puts at layer boundaries from outside the
// library: a SearchService decorator between WSQ and the (simulated)
// network, and counting wrappers under the database file and its WAL.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "net/search_service.h"
#include "search/search_engine.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace wsqperf {

/// Statement id of the statement the calling thread is executing (-1
/// outside one). Search calls are submitted from the query thread, so
/// the decorator can tag each recorded request with its statement.
inline thread_local int64_t t_statement_id = -1;

/// One search request as the decorator saw it, for the evaluation
/// replay after the traced round.
struct RecordedRequest {
  int64_t statement_id = -1;
  const wsq::SearchEngine* engine = nullptr;
  wsq::SearchRequest::Kind kind = wsq::SearchRequest::Kind::kCount;
  std::string query;
  size_t k = 0;
};

/// SearchService decorator: counts logical calls and empty answers and
/// times Submit -> callback (the service time the WSQ side observes).
/// While recording, keeps each request for the search-evaluation replay.
/// Must outlive every call it forwards (declare it before the database
/// whose ReqPump drains them).
class ProbeSearchService : public wsq::SearchService {
 public:
  ProbeSearchService(wsq::SearchService* inner,
                     const wsq::SearchEngine* engine)
      : inner_(inner), engine_(engine) {}

  const std::string& name() const override { return inner_->name(); }

  void Submit(wsq::SearchRequest request,
              wsq::SearchCallback done) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (recording_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu_);
      recorded_.push_back(RecordedRequest{t_statement_id, engine_,
                                          request.kind, request.query,
                                          request.k});
    }
    const wsq::SearchRequest::Kind kind = request.kind;
    const int64_t start = NowNanos();
    inner_->Submit(std::move(request), [this, kind, start,
                                        done = std::move(done)](
                                           wsq::SearchResponse resp) {
      service_ns_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
      if (resp.status.ok() && (kind == wsq::SearchRequest::Kind::kCount
                                   ? resp.count == 0
                                   : resp.hits.empty())) {
        empty_.fetch_add(1, std::memory_order_relaxed);
      }
      done(std::move(resp));
    });
  }

  void set_recording(bool on) { recording_.store(on); }

  std::vector<RecordedRequest> TakeRecorded() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(recorded_);
  }

  uint64_t calls() const { return calls_.load(); }
  uint64_t empty() const { return empty_.load(); }
  int64_t service_ns() const { return service_ns_.load(); }

 private:
  wsq::SearchService* const inner_;
  const wsq::SearchEngine* const engine_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> empty_{0};
  std::atomic<int64_t> service_ns_{0};
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<RecordedRequest> recorded_;
};

/// Counts page reads, page writes and syncs of the database file.
class CountingDiskManager : public wsq::DiskManager {
 public:
  explicit CountingDiskManager(wsq::DiskManager* inner) : inner_(inner) {}

  wsq::Status ReadPage(wsq::PageId page_id, char* out) override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return inner_->ReadPage(page_id, out);
  }
  wsq::Status WritePage(wsq::PageId page_id, const char* data) override {
    writes_.fetch_add(1, std::memory_order_relaxed);
    return inner_->WritePage(page_id, data);
  }
  wsq::Result<wsq::PageId> AllocatePage() override {
    return inner_->AllocatePage();
  }
  wsq::PageId NumPages() const override { return inner_->NumPages(); }
  wsq::Status Sync() override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Sync();
  }

  uint64_t reads() const { return reads_.load(); }
  uint64_t writes() const { return writes_.load(); }
  uint64_t syncs() const { return syncs_.load(); }

 private:
  wsq::DiskManager* const inner_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
};

/// Counts bytes appended to the WAL and its syncs.
class CountingWalStorage : public wsq::WalStorage {
 public:
  explicit CountingWalStorage(wsq::WalStorage* inner) : inner_(inner) {}

  wsq::Result<bool> Exists() override { return inner_->Exists(); }
  wsq::Result<std::string> ReadAll() override { return inner_->ReadAll(); }
  wsq::Status Append(std::string_view bytes) override {
    bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    return inner_->Append(bytes);
  }
  wsq::Status Sync() override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Sync();
  }
  wsq::Status Reset() override { return inner_->Reset(); }

  uint64_t bytes() const { return bytes_.load(); }
  uint64_t syncs() const { return syncs_.load(); }

 private:
  wsq::WalStorage* const inner_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace wsqperf

#endif  // WSQ_PERFBENCH_PROBES_H_
