#ifndef WSQ_NET_SIMULATED_SERVICE_H_
#define WSQ_NET_SIMULATED_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "net/latency_model.h"
#include "net/search_service.h"
#include "search/search_engine.h"

namespace wsq {

/// Declarative fault plan for a SimulatedSearchService
/// (Options::faults).
///
/// Probabilistic faults are keyed on the REQUEST CONTENT (a stable hash
/// of seed + cache key), not on arrival order, so a run is reproducible
/// per seed regardless of how concurrent submitters interleave: the same
/// query draws the same fault on every run. The rate fields partition
/// the unit interval — permanent, then hang, then transient — so their
/// sum must be <= 1.
struct FaultPlan {
  uint64_t seed = 1;

  /// Fraction of the query space that hard-fails (kExecutionError) on
  /// every attempt: a request the engine can never serve.
  double permanent_rate = 0.0;

  /// Fraction of the query space that HANGS: the request is accepted
  /// but its callback is held until ReleaseHung() (run implicitly by
  /// the destructor, completing them with kUnavailable). Pair with
  /// ReqPump deadlines to exercise the timeout path.
  double hang_rate = 0.0;

  /// Fraction of the query space that fails transiently
  /// (kUnavailable): the first `transient_tries` attempts of such a
  /// query fail, later attempts are served — so retries succeed.
  double transient_rate = 0.0;
  int transient_tries = 1;

  /// Independently of the above, this fraction of the query space gets
  /// `delay_micros` of extra service latency (a latency spike, not an
  /// error).
  double delay_rate = 0.0;
  int64_t delay_micros = 20000;

  /// Deterministic outage window: arrivals numbered
  /// [outage_start, outage_start + outage_length) (1-based arrival
  /// counter) fail with kUnavailable — N consecutive failures, the
  /// pattern that trips a circuit breaker. 0 = disabled.
  uint64_t outage_start = 0;
  uint64_t outage_length = 0;
};

struct SimulatedServiceStats {
  /// Every request submitted, faulted ones included.
  uint64_t total_requests = 0;
  /// Requests served by the engine and delivered.
  uint64_t completed_requests = 0;
  /// Peak number of requests simultaneously in service.
  uint64_t max_concurrent = 0;
  /// Faults injected per the plan (Options::faults).
  uint64_t injected_permanent = 0;
  uint64_t injected_hangs = 0;
  uint64_t injected_transient = 0;
  uint64_t injected_delays = 0;
  uint64_t outage_failures = 0;
};

/// Event-driven simulation of a remote search engine.
///
/// One timer thread holds any number of pending requests in a deadline
/// heap — no thread-per-request, mirroring the Flash-style event loop
/// the paper cites for ReqPump [PDZ99]. Each request occupies one of
/// `server_capacity` service slots for its sampled latency; requests
/// beyond capacity queue server-side (slot reuse), which is how the
/// "search engines can handle many concurrent requests" knob is modeled
/// and swept in benches.
///
/// A seeded FaultPlan makes the node the chaos harness the call layer
/// (deadlines, retries, circuit breaking, degradation policies) is
/// tested against: failures complete inline, a delay lengthens the
/// request's stay on the heap, and a hang parks the callback until
/// ReleaseHung() or destruction.
class SimulatedSearchService : public SearchService {
 public:
  struct Options {
    LatencyModel latency;
    /// Concurrent requests the engine can serve; 0 = unbounded.
    size_t server_capacity = 0;
    uint64_t seed = 1;
    /// Injected faults; the default plan injects none.
    FaultPlan faults;
  };

  SimulatedSearchService(const SearchEngine* engine, Options options);
  /// Delivers pending requests without waiting out their latency, then
  /// releases hung ones: every accepted request completes.
  ~SimulatedSearchService() override;

  const std::string& name() const override { return engine_->name(); }

  void Submit(SearchRequest request, SearchCallback done) override;

  SimulatedServiceStats stats() const;

  /// Blocks until no requests are pending (tests/benches); hung
  /// requests do not count.
  void Quiesce();

  /// Requests currently held hanging.
  size_t hung_requests() const;

  /// Completes every currently-hung request with kUnavailable (the
  /// engine "comes back" and sheds its stuck connections).
  void ReleaseHung();

 private:
  /// What the fault plan does to one request.
  enum class Fault { kNone, kFail, kHang };
  struct Pending {
    int64_t deadline_micros;
    uint64_t seq;  // FIFO tie-break
    SearchRequest request;
    SearchCallback done;

    bool operator>(const Pending& o) const {
      if (deadline_micros != o.deadline_micros) {
        return deadline_micros > o.deadline_micros;
      }
      return seq > o.seq;
    }
  };

  void TimerLoop() WSQ_EXCLUDES(mu_);
  SearchResponse Evaluate(const SearchRequest& request) const;
  /// Draws the plan's fault for the `arrival`-th request `key`: sets
  /// `*failure` for kFail, and `*delay_micros` for a latency spike.
  Fault InjectLocked(const std::string& key, uint64_t arrival,
                     Status* failure, int64_t* delay_micros)
      WSQ_REQUIRES(mu_);

  const SearchEngine* engine_;
  /// Immutable after construction (read without mu_).
  Options options_;
  /// Whether options_.faults injects anything (immutable).
  const bool faulty_;

  mutable Mutex mu_;
  CondVar cv_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>>
      heap_ WSQ_GUARDED_BY(mu_);
  /// Completion deadlines of requests currently holding a server slot;
  /// min-heap so the earliest-freeing slot is reused first.
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<>>
      slot_free_times_ WSQ_GUARDED_BY(mu_);
  Rng rng_ WSQ_GUARDED_BY(mu_);
  uint64_t next_seq_ WSQ_GUARDED_BY(mu_) = 0;
  uint64_t in_flight_ WSQ_GUARDED_BY(mu_) = 0;
  SimulatedServiceStats stats_ WSQ_GUARDED_BY(mu_);
  /// Callbacks of hanging requests (FaultPlan::hang_rate).
  std::vector<SearchCallback> hung_ WSQ_GUARDED_BY(mu_);
  /// Times each transient-fault key has been attempted.
  std::map<std::string, int> transient_seen_ WSQ_GUARDED_BY(mu_);
  bool stopping_ WSQ_GUARDED_BY(mu_) = false;
  std::thread timer_;
};

}  // namespace wsq

#endif  // WSQ_NET_SIMULATED_SERVICE_H_
