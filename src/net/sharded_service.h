#ifndef WSQ_NET_SHARDED_SERVICE_H_
#define WSQ_NET_SHARDED_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "async/req_pump.h"
#include "common/thread_annotations.h"
#include "net/latency_model.h"
#include "net/search_service.h"
#include "net/shard_policy.h"
#include "net/simulated_service.h"
#include "search/search_engine.h"
#include "web/corpus.h"

namespace wsq {

/// Aggregate counters for one ShardedSearchService (exported by its
/// metrics collector; see DESIGN.md §13).
struct ShardedServiceStats {
  /// Logical requests whose fan-out dispatched at least one primary leg.
  uint64_t fanouts = 0;
  /// Logical requests whose every primary leg joined an unresolved leg
  /// of another request on the pump (ReqPump's joins).
  uint64_t coalesced = 0;
  /// Shard legs that dispatched on the pump (primaries + hedges); a leg
  /// that joined an unresolved one is not counted. Counted from the
  /// legs' CallResults, as are the next two, so a hedge of a leg its
  /// request settled without reading is not.
  uint64_t shard_calls = 0;
  /// Legs of a request's own that the pump sent to their replica
  /// (latency hedge or failover); a joined leg's hedge counts with the
  /// request it joined.
  uint64_t hedges = 0;
  /// Of those, the shards the replica's answer decided, so at most
  /// `hedges`.
  uint64_t hedge_wins = 0;
  /// Responses delivered OK with all shards contributing.
  uint64_t complete_results = 0;
  /// Responses delivered OK but partial (quorum / best-effort).
  uint64_t partial_results = 0;
  /// Responses failed because the policy's quorum was missed.
  uint64_t quorum_failures = 0;
  /// Sum over partial responses of the shards missing from each.
  uint64_t degraded_shards = 0;
};

/// Scatter-gather front-end over N range-partitioned search shards
/// (ROADMAP item 4; ODYS in PAPERS.md): one logical SearchRequest fans
/// out to every shard through a ReqPump — each shard its own
/// destination, so per-destination limits, deadlines and latency
/// histograms apply per shard — and the per-shard answers merge back
/// into one SearchResponse (top-k by score, counts summed).
///
/// Robustness machinery, per DESIGN.md §13:
///  - Partial-result quorum: each request's ShardOptions picks fail /
///    K-of-N / best-effort when shards cannot answer; degraded
///    responses are marked partial with shards_failed set.
///  - Hedged requests: each leg names its shard's replica as the pump's
///    hedge target, so the pump hedges a slow leg there and fails a
///    failed one over (ReqPump::Register); the service only reads each
///    leg's one answer.
///  - Event-driven gather: each leg's pump notification advances only
///    its own flight; the service runs no thread of its own.
///  - Shared legs: every leg is registered on the pump keyed by the
///    leg's request (kind, k, query), so identical legs of concurrent
///    requests join one dispatch (ReqPump's joins). A request reads its
///    legs' results without taking them until it settles, so a later
///    identical request also joins the legs that have already answered
///    meanwhile. Each request still reaches its own policy verdict, and
///    one request reaping its legs never disturbs another's.
///
/// Every accepted request completes, including at destruction
/// (outstanding requests are failed with kUnavailable).
class ShardedSearchService : public SearchService {
 public:
  /// One shard: the primary stack and an optional replica used for
  /// hedging/failover. Both must outlive the service and serve the
  /// SAME corpus slice with the same rank_seed (merge correctness).
  struct Shard {
    SearchService* primary = nullptr;
    SearchService* replica = nullptr;  // null = no hedging for shard
  };

  struct Options {
    /// Logical engine name (what vtables see as the destination).
    std::string name = "sharded";
    /// Per-shard-call deadline on the pump; <= 0 = pump default.
    int64_t call_timeout_micros = 250000;
  };

  /// `pump` carries the shard calls, and their hedges, and must outlive
  /// the service; its timer thread runs the leg notifications.
  ShardedSearchService(std::vector<Shard> shards, ReqPump* pump,
                       Options options);
  ~ShardedSearchService() override;

  const std::string& name() const override { return options_.name; }

  void Submit(SearchRequest request, SearchCallback done) override
      WSQ_EXCLUDES(mu_);

  /// Blocks until no flight is outstanding and every settled one's
  /// callback has returned (tests/benches).
  void Quiesce() WSQ_EXCLUDES(mu_);

  size_t num_shards() const { return shards_.size(); }
  ShardedServiceStats stats() const WSQ_EXCLUDES(mu_);

  /// Per-shard health: true if the shard's last decided call answered
  /// OK. Exported as wsq_shard_healthy{destination=...}.
  std::vector<bool> shard_health() const WSQ_EXCLUDES(mu_);

 private:
  /// Decoded per-shard answer (see EncodeResponse/DecodeResult in the
  /// .cc: shard SearchResponses travel through the pump as CallResult
  /// rows, so the pump ledger IS the data path).
  struct ShardAnswer {
    Status status;
    int64_t count = 0;
    std::vector<SearchHit> hits;
  };

  /// One shard leg of one flight.
  struct ShardCall {
    CallId call = kInvalidCallId;
    /// Whether the leg joined another request's call on the pump.
    bool joined = false;
    /// Set once the leg's result has been read. A read result stays in
    /// ReqPumpHash until the flight settles (ReleaseLegsLocked).
    bool decided = false;
    bool ok = false;
    ShardAnswer answer;  // valid when decided && ok
  };

  /// One request's fan-out, keyed in flights_ by its flight id.
  struct Flight {
    /// Monotonic id correlating this fan-out's recorder events (hedges,
    /// leg outcomes) across threads; its pump callbacks look it up by it.
    uint64_t flight_id = 0;
    /// The request; its `shard` options judge the merged answer.
    SearchRequest request;
    /// The request key of its legs: request.CacheKey(), which leaves the
    /// shard options out, so requests with different policies share
    /// legs and each judges the merged answer itself.
    std::string leg_key;
    std::vector<ShardCall> calls;
    SearchCallback done;
    /// Query the submitting thread was bound to (flight recorder);
    /// stamps the request's quorum-failure event.
    uint64_t query_id = 0;
  };

  /// Callback delivery staged while holding mu_, delivered outside it.
  struct Delivery {
    SearchCallback done;
    SearchResponse response;
  };

  /// How leg notifications reach the service: they can run after it is
  /// gone (the pump outlives it), so the destructor clears `service`
  /// and a callback holds `mu` while it runs. Lock order: Guard::mu ->
  /// mu_ -> the pump's lock.
  struct Guard {
    explicit Guard(ShardedSearchService* s) : service(s) {}
    Mutex mu;
    ShardedSearchService* service WSQ_GUARDED_BY(mu);
  };

  /// Pump notification of shard `i`'s leg of `flight`.
  PumpCallback ShardEvent(const Flight& flight, size_t i);
  /// Decides shard `i` of flight `flight_id` (if still out) and settles
  /// the flight; appends the delivery if it resolved.
  void OnShardEvent(uint64_t flight_id, size_t i,
                    std::vector<Delivery>* out) WSQ_EXCLUDES(mu_);
  /// Counts `n` settled flights' callbacks as returned (Quiesce).
  void OnDelivered(size_t n) WSQ_EXCLUDES(mu_);
  /// Reads shard `i`'s leg and, if it has answered, decides the shard.
  void DecideShardLocked(Flight* flight, size_t i) WSQ_REQUIRES(mu_);
  /// Resolves the flight once its policy's verdict is known, reaping
  /// its legs and erasing it; appends the delivery.
  void SettleLocked(std::map<uint64_t, Flight>::iterator it,
                    std::vector<Delivery>* out) WSQ_REQUIRES(mu_);
  /// Cancels the flight's legs still out and takes every leg's result.
  void ReleaseLegsLocked(const Flight& flight) WSQ_REQUIRES(mu_);
  /// Merged response over the flight's OK shards.
  SearchResponse MergeLocked(const Flight& flight) const
      WSQ_REQUIRES(mu_);
  /// Registers shard `i`'s leg of `flight` on the pump, keyed by the
  /// leg's request and naming the shard's replica, if any, as its hedge
  /// target; counts it in shard_calls unless it joined another leg.
  void RegisterLegLocked(Flight* flight, size_t i) WSQ_REQUIRES(mu_);

  const std::vector<Shard> shards_;
  ReqPump* const pump_;
  const Options options_;
  /// Per-shard primary destination names (= primary->name()), cached so
  /// pump callbacks and collectors never touch wrapped services' locks.
  std::vector<std::string> destinations_;
  const std::shared_ptr<Guard> guard_;

  mutable Mutex mu_;
  CondVar idle_cv_;
  uint64_t next_flight_id_ WSQ_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, Flight> flights_ WSQ_GUARDED_BY(mu_);
  /// Settled flights whose callbacks have not returned yet.
  size_t delivering_ WSQ_GUARDED_BY(mu_) = 0;
  ShardedServiceStats stats_ WSQ_GUARDED_BY(mu_);
  /// Per-shard rolling health bit (last decided outcome; starts true).
  std::vector<bool> shard_ok_ WSQ_GUARDED_BY(mu_);
  /// Per-shard decided-call counters for the collector.
  std::vector<uint64_t> shard_decided_ok_ WSQ_GUARDED_BY(mu_);
  std::vector<uint64_t> shard_decided_failed_ WSQ_GUARDED_BY(mu_);
  bool stopping_ WSQ_GUARDED_BY(mu_) = false;

  uint64_t collector_id_ = 0;
};

/// Self-contained N-shard simulated cluster: takes N disjoint shard
/// views of one corpus (Corpus::ShardSlice: shard s owns a contiguous
/// document-id range, and its view is an O(1) window onto the corpus's
/// one index that shows only that range's postings), builds primary
/// (and optionally replica) engines per shard over that window — all
/// sharing the base engine's rank_seed so merged results are
/// byte-identical to an unsharded engine over the full corpus — each
/// on its own simulated node (which injects the shard's faults), and
/// fronts them with a ShardedSearchService on a private ReqPump that
/// retries transient shard failures and keeps a circuit breaker per
/// destination. Used by DemoEnv (`search_shards`), tests/net and
/// bench_shards.
class SimulatedShardCluster {
 public:
  struct Options {
    size_t num_shards = 4;
    /// Base engine identity; shard engines are named
    /// "<name>.shard<i>" / "<name>.shard<i>r" (replicas).
    SearchEngineConfig engine;
    LatencyModel latency;
    /// Per-shard concurrent capacity of each simulated node.
    size_t server_capacity = 0;
    /// Seeds the nodes' latency draws and offsets the pump's backoff
    /// draws (pump_limits.retry.seed).
    uint64_t seed = 1;
    /// Build a replica node per shard (enables hedging/failover).
    bool with_replicas = false;
    /// Fault plans applied per shard (index < num_shards); missing
    /// entries mean no injected faults. Replicas are not faulted.
    std::vector<FaultPlan> shard_faults;
    /// Limits of the cluster's pump. By default a shard call gets three
    /// attempts and each destination a five-failure circuit breaker.
    ReqPump::Limits pump_limits{.retry = {.max_attempts = 3},
                                .breaker = CircuitBreakerOptions{}};
    ShardedSearchService::Options service;
  };

  /// `corpus` must outlive the cluster.
  SimulatedShardCluster(const Corpus* corpus, Options options);

  SimulatedShardCluster(const SimulatedShardCluster&) = delete;
  SimulatedShardCluster& operator=(const SimulatedShardCluster&) = delete;

  ShardedSearchService* service() { return sharded_.get(); }
  ReqPump* pump() { return pump_.get(); }
  size_t num_shards() const { return options_.num_shards; }
  /// Shard `shard`'s primary node; its name() is the shard's pump
  /// destination.
  SimulatedSearchService* node(size_t shard) { return nodes_[shard].get(); }

  /// Blocks until the front-end and every simulated node are idle.
  /// Requests parked by an injected hang do not count.
  void Quiesce();

 private:
  Options options_;
  /// Destruction runs in reverse declaration order: the
  /// ShardedSearchService goes first (cancels its legs and fails its
  /// outstanding requests), then its pump (drops calls in backoff and
  /// sends no more hedges), then the nodes, which deliver what they
  /// still hold — hung requests and the losers of hedges included —
  /// into the pump's shared core, where it is discarded; then engines
  /// and slices.
  std::vector<Corpus> slices_;
  std::vector<std::unique_ptr<SearchEngine>> engines_;
  std::vector<std::unique_ptr<SimulatedSearchService>> nodes_;
  /// Replica nodes (index parallel to shards).
  std::vector<std::unique_ptr<SearchEngine>> replica_engines_;
  std::vector<std::unique_ptr<SimulatedSearchService>> replica_nodes_;
  std::unique_ptr<ReqPump> pump_;
  std::unique_ptr<ShardedSearchService> sharded_;
};

}  // namespace wsq

#endif  // WSQ_NET_SHARDED_SERVICE_H_
