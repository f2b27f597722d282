#ifndef WSQ_WSQ_DEMO_H_
#define WSQ_WSQ_DEMO_H_

#include <memory>

#include "data/datasets.h"
#include "net/result_cache.h"
#include "net/sharded_service.h"
#include "net/simulated_service.h"
#include "search/search_engine.h"
#include "wsq/database.h"

namespace wsq {

struct DemoOptions {
  /// Synthetic Web size and seed.
  CorpusConfig corpus = DefaultPaperCorpusConfig();
  /// Simulated search latency for both engines.
  LatencyModel latency = LatencyModel{40000, 10000, 0.0, 1.0};
  /// Server-side concurrency capacity (0 = unbounded).
  size_t server_capacity = 0;
  /// Attach a client-side result cache of this many entries (0 = none).
  size_t client_cache_entries = 0;
  /// Byte bound for the client cache (0 = entry bound only). The cache
  /// is also attached to the database memory budget, so it sheds under
  /// process-wide pressure (tier 2).
  size_t client_cache_bytes = 0;
  /// Database-wide memory budget (0 = unlimited); see
  /// WsqDatabase::Options::memory_budget_bytes.
  size_t memory_budget_bytes = 0;
  /// ReqPump concurrency limits.
  ReqPump::Limits pump_limits;
  /// Overload admission control for the database (default: off).
  AdmissionLimits admission;
  /// Partition the AltaVista backend into this many simulated shards
  /// behind a ShardedSearchService (0 = the paper's unsharded setup).
  /// Per-query ExecOptions::shard then picks the partial-result policy.
  size_t search_shards = 0;
  /// Give each shard a replica node (enables hedged requests). Only
  /// meaningful when search_shards > 0.
  bool shard_replicas = true;
  /// Seeded fault plans applied per shard (index < search_shards;
  /// missing entries mean no injected faults). Only meaningful when
  /// search_shards > 0.
  std::vector<FaultPlan> shard_faults;
  /// Forwarded to WsqDatabase::Options: capture query records (slow
  /// statements, postmortems) instead of the default stderr output
  /// (chaos tests do this).
  QueryLog::Sink query_log_sink;
  int64_t postmortem_min_interval_micros = 0;
  uint64_t seed = 42;
};

/// A ready-to-use WSQ deployment matching the paper's setup (Figure 1):
/// one synthetic Web, two search engines over it — "AltaVista" (NEAR
/// support) and "Google" (plain conjunction, different ranking salt) —
/// simulated network services, and a WsqDatabase preloaded with the
/// paper's stored tables: States, Sigs, CSFields, Movies.
///
/// Virtual tables registered: WebCount/WebPages (AltaVista, the default
/// engine), WebCount_AV/WebPages_AV, WebCount_Google/WebPages_Google.
class DemoEnv {
 public:
  explicit DemoEnv(const DemoOptions& options = DemoOptions());

  /// Detaches the client cache from the database budget before the
  /// database (and its budget) is destroyed; see member order below.
  ~DemoEnv();

  WsqDatabase& db() { return *db_; }
  const Corpus& corpus() const { return *corpus_; }
  SimulatedSearchService& altavista_service() { return *av_service_; }
  SimulatedSearchService& google_service() { return *google_service_; }
  const SearchEngine& altavista_engine() const { return *av_engine_; }
  const SearchEngine& google_engine() const { return *google_engine_; }
  ResultCache* client_cache() { return client_cache_.get(); }
  /// Non-null when DemoOptions::search_shards > 0.
  SimulatedShardCluster* shard_cluster() { return shard_cluster_.get(); }

  /// Convenience: Execute and fail loudly in tests/examples.
  Result<QueryExecution> Run(const std::string& sql,
                             bool async_iteration = true);

 private:
  // Declaration order is destruction-order-critical. The database goes
  // first: its ReqPump waits for the calls whose answers are still
  // wanted while the services that complete them are alive. It does not
  // wait for abandoned calls (cancelled once nothing will use them, or
  // timed out), so the services may still hold requests when they are
  // destroyed; they deliver those at once, and the answers pass through
  // the caching layer. The caches are therefore declared before, and
  // outlive, the services below them.
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<SearchEngine> av_engine_;
  std::unique_ptr<SearchEngine> google_engine_;
  std::unique_ptr<ResultCache> client_cache_;
  std::unique_ptr<CachingSearchService> av_cached_;
  std::unique_ptr<CachingSearchService> google_cached_;
  std::unique_ptr<SimulatedSearchService> av_service_;
  std::unique_ptr<SimulatedSearchService> google_service_;
  std::unique_ptr<SimulatedShardCluster> shard_cluster_;
  std::unique_ptr<WsqDatabase> db_;
};

/// Loads the paper's stored tables into any database.
Status LoadStatesTable(WsqDatabase* db);
Status LoadSigsTable(WsqDatabase* db);
Status LoadCsFieldsTable(WsqDatabase* db);
Status LoadMoviesTable(WsqDatabase* db);

}  // namespace wsq

#endif  // WSQ_WSQ_DEMO_H_
