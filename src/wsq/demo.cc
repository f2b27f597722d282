#include "wsq/demo.h"

#include "common/macros.h"

namespace wsq {

DemoEnv::DemoEnv(const DemoOptions& options) {
  corpus_ = std::make_unique<Corpus>(MakePaperCorpus(options.corpus));

  SearchEngineConfig av_cfg;
  av_cfg.name = "AltaVista";
  av_cfg.supports_near = true;
  av_cfg.rank_seed = 101 ^ options.seed;
  av_engine_ = std::make_unique<SearchEngine>(corpus_.get(), av_cfg);

  SearchEngineConfig g_cfg;
  g_cfg.name = "Google";
  g_cfg.supports_near = false;
  g_cfg.rank_seed = 20706 ^ options.seed;
  google_engine_ = std::make_unique<SearchEngine>(corpus_.get(), g_cfg);

  SimulatedSearchService::Options svc;
  svc.latency = options.latency;
  svc.server_capacity = options.server_capacity;
  svc.seed = options.seed;
  av_service_ =
      std::make_unique<SimulatedSearchService>(av_engine_.get(), svc);
  svc.seed = options.seed + 1;
  google_service_ = std::make_unique<SimulatedSearchService>(
      google_engine_.get(), svc);

  SearchService* av = av_service_.get();
  SearchService* google = google_service_.get();
  if (options.search_shards > 0) {
    SimulatedShardCluster::Options cluster;
    cluster.num_shards = options.search_shards;
    cluster.engine = av_cfg;
    cluster.latency = options.latency;
    cluster.server_capacity = options.server_capacity;
    cluster.seed = options.seed;
    cluster.with_replicas = options.shard_replicas;
    cluster.shard_faults = options.shard_faults;
    shard_cluster_ =
        std::make_unique<SimulatedShardCluster>(corpus_.get(), cluster);
    av = shard_cluster_->service();
  }
  if (options.client_cache_entries > 0) {
    client_cache_ = std::make_unique<ResultCache>(
        options.client_cache_entries, /*ttl_micros=*/0,
        options.client_cache_bytes);
    av_cached_ =
        std::make_unique<CachingSearchService>(av, client_cache_.get());
    google_cached_ = std::make_unique<CachingSearchService>(
        google, client_cache_.get());
    av = av_cached_.get();
    google = google_cached_.get();
  }

  WsqDatabase::Options db_options;
  db_options.pump_limits = options.pump_limits;
  db_options.admission = options.admission;
  db_options.memory_budget_bytes = options.memory_budget_bytes;
  db_options.query_log_sink = options.query_log_sink;
  db_options.postmortem_min_interval_micros =
      options.postmortem_min_interval_micros;
  db_ = std::make_unique<WsqDatabase>(db_options);
  if (client_cache_ != nullptr) {
    // Tier 2: cached responses count against the database budget and
    // are shed under pressure.
    client_cache_->AttachBudget(db_->memory_budget());
  }

  Status s = db_->RegisterSearchEngine("AV", av, /*supports_near=*/true);
  if (s.ok()) {
    s = db_->RegisterSearchEngine("Google", google,
                                  /*supports_near=*/false);
  }
  if (s.ok()) s = LoadStatesTable(db_.get());
  if (s.ok()) s = LoadSigsTable(db_.get());
  if (s.ok()) s = LoadCsFieldsTable(db_.get());
  if (s.ok()) s = LoadMoviesTable(db_.get());
  if (!s.ok()) {
    // Construction of the fixed demo schema cannot fail unless the
    // library itself is broken; surface that loudly.
    std::fprintf(stderr, "DemoEnv setup failed: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
}

DemoEnv::~DemoEnv() {
  // The cache outlives the database (the pump may still call through
  // the caching service while draining), so its budget hook must be
  // removed while the budget is still alive.
  if (client_cache_ != nullptr) client_cache_->DetachBudget();
}

Result<QueryExecution> DemoEnv::Run(const std::string& sql,
                                    bool async_iteration) {
  WsqDatabase::ExecOptions options;
  options.async_iteration = async_iteration;
  return db_->Execute(sql, options);
}

Status LoadStatesTable(WsqDatabase* db) {
  Schema schema({Column("Name", TypeId::kString),
                 Column("Population", TypeId::kInt64),
                 Column("Capital", TypeId::kString)});
  WSQ_ASSIGN_OR_RETURN(TableInfo * table,
                       db->catalog()->CreateTable("States", schema));
  for (const StateRecord& s : UsStates1998()) {
    WSQ_RETURN_IF_ERROR(table->Insert(
        Row({Value::Str(s.name), Value::Int(s.population),
             Value::Str(s.capital)})));
  }
  return Status::OK();
}

Status LoadSigsTable(WsqDatabase* db) {
  Schema schema({Column("Name", TypeId::kString)});
  WSQ_ASSIGN_OR_RETURN(TableInfo * table,
                       db->catalog()->CreateTable("Sigs", schema));
  for (const std::string& sig : AcmSigs()) {
    WSQ_RETURN_IF_ERROR(table->Insert(Row({Value::Str(sig)})));
  }
  return Status::OK();
}

Status LoadCsFieldsTable(WsqDatabase* db) {
  Schema schema({Column("Name", TypeId::kString)});
  WSQ_ASSIGN_OR_RETURN(TableInfo * table,
                       db->catalog()->CreateTable("CSFields", schema));
  for (const std::string& f : CsFields()) {
    WSQ_RETURN_IF_ERROR(table->Insert(Row({Value::Str(f)})));
  }
  return Status::OK();
}

Status LoadMoviesTable(WsqDatabase* db) {
  Schema schema({Column("Title", TypeId::kString)});
  WSQ_ASSIGN_OR_RETURN(TableInfo * table,
                       db->catalog()->CreateTable("Movies", schema));
  for (const std::string& m : MovieTitles()) {
    WSQ_RETURN_IF_ERROR(table->Insert(Row({Value::Str(m)})));
  }
  return Status::OK();
}

}  // namespace wsq
