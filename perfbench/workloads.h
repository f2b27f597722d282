#ifndef WSQ_PERFBENCH_WORKLOADS_H_
#define WSQ_PERFBENCH_WORKLOADS_H_

// The workload interface the runner (wsq_bench.cc) drives, and the
// factories for the five workloads. Each workload owns a complete
// environment assembled from public library APIs and replays a seeded
// statement stream per client.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "async/req_pump.h"
#include "common/random.h"
#include "net/sharded_service.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "wsq/database.h"

namespace wsqperf {

/// One bench-side span (written to --trace-out). `clock` says what
/// `start_us` is relative to: "round" = the traced round's start,
/// "query" = the library tracer's epoch for that statement.
struct BenchSpan {
  int64_t statement_id = -1;
  std::string name;
  std::string clock;
  double start_us = 0;
  double dur_us = 0;
};

/// What one statement did. Latency is the wall time of the call into
/// the library only (not the bench's own checking).
struct Outcome {
  bool ok = true;
  std::string error;
  int op = 0;  ///< index into Workload::op_names()
  int64_t latency_ns = 0;
  /// SELECT through the planner (has bind/rewrite/execute spans).
  bool select = false;
  bool checkpoint = false;
  /// Per-statement QueryStats (zero for statements without them).
  uint64_t spilled_bytes = 0;
  uint64_t spill_runs = 0;
  uint64_t peak_memory_bytes = 0;
  uint64_t pressure_released_bytes = 0;
  uint64_t reqsync_peak_rows = 0;
  /// Layer ledger, filled only for traced statements.
  bool has_sql = false;  ///< parse_ns is meaningful
  int64_t parse_ns = 0;  ///< bench-timed Parser::Parse of the same text
  int64_t bind_us = 0;
  int64_t rewrite_us = 0;
  int64_t execute_us = 0;
  int64_t reqsync_wait_us = 0;
  int64_t fetch_us = 0;
  std::vector<BenchSpan> spans;  ///< library spans (clock "query")
};

/// Always-on layer counters, snapshotted at the edges of each measured
/// round; per-layer count metrics sum the rounds' deltas.
struct Counters {
  wsq::ReqPumpStats pump;
  uint64_t calls = 0;
  uint64_t empty_calls = 0;
  int64_t service_ns = 0;
  bool sharded = false;
  wsq::ShardedServiceStats shards;
  wsq::BufferPoolStats pool;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t disk_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t user_row_bytes = 0;
  uint64_t checkpoints = 0;
};

/// One named correctness check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Run-shape knobs the runner passes to every workload.
struct RunConfig {
  uint64_t seed = 1;
  /// Writable directory inside the checkout (spill files, database
  /// files); the runner creates and removes it.
  std::string scratch;
  /// Tiny sizes for the ctest smoke run.
  bool smoke = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string why() const = 0;
  virtual int clients() const = 0;
  virtual std::vector<std::string> op_names() const = 0;
  /// Statements per round: whole passes of the workload's deck, at
  /// least 200 so that the round's p95 has ten statements beyond it.
  /// Fixed, never calibrated, so every round of every run runs the same
  /// mix and round times differ only by how busy the host was.
  virtual size_t round_statements() const = 0;

  /// Tears down any previous environment and builds a fresh one.
  virtual void Setup() = 0;

  /// Runs the next statement of the workload's one stream, on behalf
  /// of client `client` (thread-safe across clients). `traced` turns on
  /// ExecOptions::trace and fills the outcome's ledger.
  virtual Outcome Next(int client, bool traced) = 0;

  /// Untimed hooks around each round. stored_write starts every round
  /// from a freshly loaded table and ends it with a checkpoint, so each
  /// round does the same work and every byte it wrote is counted.
  virtual void BeginRound() {}
  virtual void EndRound() {}

  virtual Counters Snapshot() = 0;

  /// Turns request recording at the search decorators on or off.
  virtual void RecordSearches(bool /*on*/) {}
  /// Replays every recorded request against its SearchEngine; returns
  /// the spans (one per request, clock "eval").
  virtual std::vector<BenchSpan> ReplaySearches() { return {}; }

  /// Post-run correctness checks (reference results, ledgers, files).
  virtual std::vector<Check> Verify() = 0;
};

std::unique_ptr<Workload> MakeWebWorkload(const std::string& name,
                                          const RunConfig& config);
std::unique_ptr<Workload> MakeStoredWorkload(const std::string& name,
                                             const RunConfig& config);

/// Infinite seeded stream over a deck of statement kinds: each pass
/// deals the whole deck in a fresh Fisher-Yates order, so any window of
/// whole passes has exactly the deck's mix, whatever the seed.
class DeckStream {
 public:
  DeckStream(std::vector<int> deck, uint64_t seed)
      : deck_(std::move(deck)), rng_(seed) {}

  int Next() {
    if (pos_ == deck_.size()) pos_ = 0;
    if (pos_ == 0) {
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Uniform(i)]);
      }
    }
    return deck_[pos_++];
  }

  size_t size() const { return deck_.size(); }

 private:
  std::vector<int> deck_;
  wsq::Rng rng_;
  size_t pos_ = 0;
};

/// Fills the ledger fields of `out` from a finished query trace.
void AbsorbTrace(const wsq::QueryTrace& trace, Outcome* out);

/// Times Parser::Parse of `sql` (the parse inside Execute is not
/// spanned by the library).
int64_t TimeParse(const std::string& sql);

}  // namespace wsqperf

#endif  // WSQ_PERFBENCH_WORKLOADS_H_
