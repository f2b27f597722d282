#include "wsq/database.h"

#include <atomic>

#include "catalog/catalog_serde.h"
#include "plan/cost_model.h"
#include "common/strings.h"
#include "storage/serde.h"
#include "common/clock.h"
#include "common/macros.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "wsq/web_tables.h"

namespace wsq {

namespace {

/// Process-unique query ids: one sequence across every open database,
/// so slow-query lines and traces from different databases never
/// collide in a shared log.
std::atomic<uint64_t> g_next_query_id{1};

/// Process-unique database ordinals: they tell the `budget="db"`
/// series of open databases apart, which would otherwise be summed.
std::atomic<uint64_t> g_next_database{1};

/// Publishes `budget`'s wsq_mem_* series, labelled by its name and
/// `extra`.
void EmitBudget(MetricsEmitter* emitter, MemoryBudget* budget,
                const MetricLabels& extra = {}) {
  MetricLabels labels{{"budget", budget->name()}};
  labels.insert(labels.end(), extra.begin(), extra.end());
  emitter->EmitGauge("wsq_mem_used_bytes", "Bytes currently reserved",
                     labels, static_cast<int64_t>(budget->used()));
  emitter->EmitGauge("wsq_mem_limit_bytes", "Budget limit (0 = unlimited)",
                     labels, static_cast<int64_t>(budget->limit()));
  emitter->EmitGauge("wsq_mem_peak_used_bytes",
                     "High-water mark of reserved bytes", labels,
                     static_cast<int64_t>(budget->peak_used()));
  MemoryBudgetStats s = budget->stats();
  emitter->EmitCounter("wsq_mem_reserve_failures_total",
                       "Reservations refused at this budget", labels,
                       s.reserve_failures);
  emitter->EmitCounter("wsq_mem_pressure_invocations_total",
                       "Pressure-hook sweeps run at this budget", labels,
                       s.pressure_invocations);
  emitter->EmitCounter("wsq_mem_pressure_released_bytes_total",
                       "Bytes freed by pressure hooks at this budget",
                       labels, s.pressure_released_bytes);
  emitter->EmitCounter("wsq_mem_forced_overages_total",
                       "ForceReserve charges admitted past the limit",
                       labels, s.forced_overages);
}

}  // namespace

WsqDatabase::WsqDatabase(const Options& options,
                         std::unique_ptr<DiskManager> owned_disk,
                         DiskManager* disk,
                         std::unique_ptr<WalStorage> owned_wal,
                         WalStorage* wal, bool persistent)
    : options_(options),
      owned_disk_(std::move(owned_disk)),
      // A null `disk` means "use the owned one" (the in-memory ctor
      // cannot name the unique_ptr it is passing before it exists).
      disk_(disk != nullptr ? disk : owned_disk_.get()),
      owned_wal_(std::move(owned_wal)),
      wal_(wal != nullptr ? wal : owned_wal_.get()),
      persistent_(persistent),
      memory_budget_("db", options.memory_budget_bytes,
                     MemoryBudget::Process()),
      buffer_pool_(options.buffer_pool_pages, disk_),
      catalog_(&buffer_pool_),
      pump_(options.pump_limits),
      admission_(options.admission),
      query_log_(options.slow_query_micros,
                 options.postmortem_min_interval_micros,
                 options.query_log_sink) {
  // Tier 2 wiring: resident pages are charged to the database budget,
  // and a pressure hook sheds clean pages when any reservation fails.
  buffer_pool_.AttachBudget(&memory_budget_);
  if (options.enable_spill) {
    SpillManager::Options spill_options;
    spill_options.dir = options.spill_dir;
    spill_ = std::make_unique<SpillManager>(spill_options);
  }
  // The process budget is published once; each database publishes only
  // its own, under its ordinal (the registry sums series that share name
  // and labels).
  static const uint64_t kProcessCollector =
      MetricsRegistry::Global()->AddCollector([](MetricsEmitter* emitter) {
        EmitBudget(emitter, MemoryBudget::Process());
      });
  (void)kProcessCollector;
  mem_collector_id_ = MetricsRegistry::Global()->AddCollector(
      [this, labels = MetricLabels{{"database",
                                    std::to_string(g_next_database++)}}](
          MetricsEmitter* emitter) {
        EmitBudget(emitter, &memory_budget_, labels);
      });
}

WsqDatabase::WsqDatabase(const Options& options)
    : WsqDatabase(options, std::make_unique<InMemoryDiskManager>(),
                  /*disk=*/nullptr, /*owned_wal=*/nullptr,
                  /*wal=*/nullptr, /*persistent=*/false) {}

WsqDatabase::~WsqDatabase() {
  MetricsRegistry::Global()->RemoveCollector(mem_collector_id_);
  if (persistent_ && options_.checkpoint_on_close) {
    Status s = Checkpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "WsqDatabase checkpoint failed: %s\n",
                   s.ToString().c_str());
    }
  }
}

Result<std::unique_ptr<WsqDatabase>> WsqDatabase::Open(
    const std::string& path, const Options& options) {
  WSQ_ASSIGN_OR_RETURN(std::unique_ptr<FileDiskManager> disk,
                       FileDiskManager::Open(path, options.sync_policy));
  auto wal =
      std::make_unique<FileWalStorage>(path + ".wal", options.sync_policy);
  DiskManager* disk_ptr = disk.get();
  WalStorage* wal_ptr = wal.get();
  std::unique_ptr<WsqDatabase> db(
      new WsqDatabase(options, std::move(disk), disk_ptr, std::move(wal),
                      wal_ptr, /*persistent=*/true));
  return OpenImpl(std::move(db));
}

Result<std::unique_ptr<WsqDatabase>> WsqDatabase::OpenWithStorage(
    DiskManager* disk, WalStorage* wal, const Options& options) {
  std::unique_ptr<WsqDatabase> db(new WsqDatabase(
      options, nullptr, disk, nullptr, wal, /*persistent=*/true));
  return OpenImpl(std::move(db));
}

Result<std::unique_ptr<WsqDatabase>> WsqDatabase::OpenImpl(
    std::unique_ptr<WsqDatabase> db) {
  // Finish or roll back an interrupted checkpoint before reading any
  // page through the buffer pool.
  if (db->wal_ != nullptr) {
    WSQ_ASSIGN_OR_RETURN(db->last_recovery_,
                         RecoverCheckpoint(db->wal_, db->disk_));
  }
  bool fresh = db->disk_->NumPages() == 0;
  if (fresh) {
    // Reserve the catalog root page (page 0), write an empty catalog,
    // and checkpoint immediately so reopen always finds valid metadata
    // even if the process dies before the first explicit checkpoint.
    WSQ_ASSIGN_OR_RETURN(Page * root, db->buffer_pool_.NewPage());
    if (root->page_id() != kCatalogRootPage) {
      return Status::Internal("catalog root is not page 0");
    }
    WSQ_RETURN_IF_ERROR(
        db->buffer_pool_.UnpinPage(root->page_id(), /*dirty=*/true));
    WSQ_RETURN_IF_ERROR(db->Checkpoint());
  } else {
    WSQ_RETURN_IF_ERROR(LoadCatalog(&db->catalog_, &db->buffer_pool_));
  }
  return db;
}

Status WsqDatabase::Checkpoint() {
  if (!persistent_) {
    return Status::InvalidArgument(
        "Checkpoint() requires a file-backed database (use Open)");
  }
  // A failed earlier attempt may have left a log behind: a committed
  // one must be finished (its pages may be half-installed), a torn one
  // discarded — otherwise its bytes would corrupt the log written
  // below. Replay is idempotent and every still-dirty page gets
  // re-logged, so this is safe in all interleavings.
  if (wal_ != nullptr) {
    WSQ_RETURN_IF_ERROR(RecoverCheckpoint(wal_, disk_).status());
  }
  WSQ_RETURN_IF_ERROR(SaveCatalog(catalog_, &buffer_pool_));
  std::vector<std::pair<PageId, std::string>> dirty =
      buffer_pool_.DirtyPageImages();
  if (dirty.empty()) return Status::OK();
  if (wal_ != nullptr) {
    // Phase 1: harden every dirty page image in the log. The commit
    // record's sync is the checkpoint's commit point.
    LogWriter writer(wal_);
    for (const auto& [page_id, frame] : dirty) {
      WSQ_RETURN_IF_ERROR(writer.AppendPageImage(page_id, frame.data()));
    }
    WSQ_RETURN_IF_ERROR(writer.Commit(static_cast<uint32_t>(dirty.size())));
  }
  // Phase 2: install the images into the database file. A crash here
  // is repaired on the next Open by replaying the committed log.
  WSQ_RETURN_IF_ERROR(buffer_pool_.FlushAll());
  WSQ_RETURN_IF_ERROR(disk_->Sync());
  if (wal_ != nullptr) {
    WSQ_RETURN_IF_ERROR(wal_->Reset());
  }
  FlightRecorder::Global()->Record(FrEventType::kWalCheckpoint, "wal",
                                   /*cause=*/"", /*query_id=*/0,
                                   static_cast<int64_t>(dirty.size()));
  return Status::OK();
}

Status WsqDatabase::RegisterSearchEngine(const std::string& engine_name,
                                         SearchService* service,
                                         bool supports_near) {
  bool first = vtables_.List().empty();
  WSQ_RETURN_IF_ERROR(vtables_.Register(std::make_unique<WebCountTable>(
      "WebCount_" + engine_name, service, supports_near)));
  WSQ_RETURN_IF_ERROR(vtables_.Register(std::make_unique<WebPagesTable>(
      "WebPages_" + engine_name, service, supports_near)));
  if (first) {
    WSQ_RETURN_IF_ERROR(vtables_.Register(std::make_unique<WebCountTable>(
        "WebCount", service, supports_near)));
    WSQ_RETURN_IF_ERROR(vtables_.Register(std::make_unique<WebPagesTable>(
        "WebPages", service, supports_near)));
  }
  return Status::OK();
}

Result<QueryExecution> WsqDatabase::Execute(const std::string& sql,
                                            const ExecOptions& options) {
  // Per-query observability wrapper around the real dispatch: every
  // statement — success or failure — lands in the registry counters,
  // the latency histogram, and the query log (which reports it only
  // when slow, failed or degraded). Instrument handles are fetched once
  // per process.
  MetricsRegistry* registry = MetricsRegistry::Global();
  static Counter* queries = registry->GetCounter(
      "wsq_queries_total", "Statements executed (all kinds)");
  static Counter* errors = registry->GetCounter(
      "wsq_query_errors_total", "Statements that returned an error");
  static Histogram* latency = registry->GetHistogram(
      "wsq_query_latency_micros", "End-to-end statement latency");

  uint64_t query_id =
      g_next_query_id.fetch_add(1, std::memory_order_relaxed);
  // Bind the id to this thread for the whole statement: every
  // flight-recorder event the query causes on this thread (admission
  // waits, call registrations, memory pressure) is stamped with it, and
  // the pump/sharded layers carry it across threads from here.
  QueryIdBinding qid_binding(query_id);
  FlightRecorder* recorder = FlightRecorder::Global();
  recorder->Record(FrEventType::kQueryBegin, /*destination=*/"",
                   /*cause=*/"", query_id);

  Stopwatch timer;
  QueryStats failure_stats;
  Result<QueryExecution> result =
      ExecuteInternal(sql, options, &failure_stats);
  int64_t elapsed = timer.ElapsedMicros();

  if (queries != nullptr) queries->Increment();
  if (latency != nullptr) latency->RecordWithExemplar(elapsed, query_id);
  if (!result.ok() && errors != nullptr) errors->Increment();

  // The successful execution's stats, or whatever the query accumulated
  // before it died.
  QueryStats* stats = result.ok() ? &result->stats : &failure_stats;
  stats->query_id = query_id;
  if (result.ok() && stats->elapsed_micros == 0) {
    // SELECTs keep the executor's own elapsed time (it excludes
    // parse/admission); the wrapper's timer covers everything else.
    stats->elapsed_micros = elapsed;
  }
  recorder->Record(FrEventType::kQueryEnd, /*destination=*/"",
                   result.ok()
                       ? (stats->degraded() ? "degraded" : "")
                       : StatusCodeToString(result.status().code()),
                   query_id, elapsed);
  query_log_.OnQueryEnd(sql, result.status(),
                        result.ok() ? result->result.rows.size() : 0,
                        elapsed, *stats, options.slow_query_micros);
  return result;
}

Result<QueryExecution> WsqDatabase::ExecuteInternal(
    const std::string& sql, const ExecOptions& options,
    QueryStats* failure_stats) {
  // Query governor: one token carries the deadline and the cancel flag
  // for the whole statement. A caller-supplied token lets another
  // thread abort mid-flight; otherwise a private one enforces just the
  // deadline.
  CancellationToken local_token;
  CancellationToken* token =
      options.cancel != nullptr ? options.cancel : &local_token;
  if (options.deadline_micros > 0) {
    token->SetDeadlineAfter(options.deadline_micros);
  }

  // Overload admission: bounded-wait-then-shed before any parsing or
  // planning work is sunk into the query. The ticket holds the
  // execution slot until this function returns.
  WSQ_ASSIGN_OR_RETURN(AdmissionController::Ticket ticket,
                       admission_.Admit(token));
  // Waiting for a slot may have consumed the whole budget.
  WSQ_RETURN_IF_ERROR(token->CheckAlive());

  // Tier 3 of the degradation ladder: refuse new statements when the
  // database/process budget cannot yield even a token reservation.
  // TryReserve runs the pressure hooks (cache and buffer-pool
  // shedding) before failing, so this only fires once shedding can no
  // longer keep the process under budget.
  constexpr size_t kAdmissionProbeBytes = 16 * 1024;
  if (!memory_budget_.TryReserve(kAdmissionProbeBytes)) {
    return Status::ResourceExhausted(
        "memory budget exhausted: statement refused (raise "
        "Options::memory_budget_bytes or retry after load drops)");
  }
  memory_budget_.Release(kAdmissionProbeBytes);

  WSQ_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                       Parser::Parse(sql));
  switch (stmt->kind()) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(static_cast<const SelectStatement&>(*stmt),
                           options, token, failure_stats);
    case Statement::Kind::kCreateTable:
      return ExecuteCreateTable(
          static_cast<const CreateTableStatement&>(*stmt));
    case Statement::Kind::kCreateIndex:
      return ExecuteCreateIndex(
          static_cast<const CreateIndexStatement&>(*stmt));
    case Statement::Kind::kDropTable: {
      const auto& drop = static_cast<const DropTableStatement&>(*stmt);
      WSQ_RETURN_IF_ERROR(catalog_.DropTable(drop.table));
      return QueryExecution{};
    }
    case Statement::Kind::kInsert:
      return ExecuteInsert(static_cast<const InsertStatement&>(*stmt));
    case Statement::Kind::kDelete:
      return ExecuteDelete(static_cast<const DeleteStatement&>(*stmt));
    case Statement::Kind::kUpdate:
      return ExecuteUpdate(static_cast<const UpdateStatement&>(*stmt));
    case Statement::Kind::kExplain: {
      const auto& explain = static_cast<const ExplainStatement&>(*stmt);
      if (explain.analyze) {
        // EXPLAIN ANALYZE actually runs the query, then returns the
        // profile-annotated operator tree instead of the rows.
        ExecOptions run = options;
        run.analyze = true;
        run.async_iteration = explain.async;
        WSQ_ASSIGN_OR_RETURN(
            QueryExecution exec,
            ExecuteSelect(*explain.select, run, token, failure_stats));
        std::string text;
        if (exec.profile.has_value()) text = exec.profile->ToString();
        text += StrFormat(
            "-- rows=%llu elapsed=%s external_calls=%llu mode=%s\n",
            static_cast<unsigned long long>(exec.result.rows.size()),
            FormatMicros(exec.stats.elapsed_micros).c_str(),
            static_cast<unsigned long long>(exec.stats.external_calls),
            exec.stats.async_iteration ? "async" : "sync");
        QueryExecution out;
        out.stats = exec.stats;
        out.profile = std::move(exec.profile);
        out.trace = std::move(exec.trace);
        out.result.schema =
            Schema({Column("Plan", TypeId::kString, "")});
        out.result.rows.push_back(Row({Value::Str(std::move(text))}));
        return out;
      }
      WSQ_ASSIGN_OR_RETURN(
          std::string text,
          ExplainPlan(*explain.select, explain.async, options.rewrite));
      QueryExecution out;
      out.result.schema =
          Schema({Column("Plan", TypeId::kString, "")});
      out.result.rows.push_back(Row({Value::Str(std::move(text))}));
      return out;
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<std::string> WsqDatabase::ExplainSelect(const std::string& sql,
                                               bool async,
                                               RewriteOptions rewrite) {
  WSQ_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                       Parser::ParseSelect(sql));
  return ExplainPlan(*stmt, async, rewrite);
}

Result<std::string> WsqDatabase::ExplainPlan(const SelectStatement& stmt,
                                             bool async,
                                             const RewriteOptions& rewrite) {
  Binder binder(&catalog_, &vtables_, options_.binder);
  WSQ_ASSIGN_OR_RETURN(PlanNodePtr plan, binder.Bind(stmt));
  if (async) {
    WSQ_ASSIGN_OR_RETURN(plan,
                         ApplyAsyncIteration(std::move(plan), rewrite));
  }
  std::string out = plan->ToString();
  WSQ_ASSIGN_OR_RETURN(PlanCostEstimate cost, EstimatePlanCost(*plan));
  out += "-- " + cost.ToString() + "\n";
  return out;
}

Result<QueryExecution> WsqDatabase::ExecuteSelect(
    const SelectStatement& stmt, const ExecOptions& options,
    const CancellationToken* token, QueryStats* failure_stats) {
  // The tracer (when requested) lives for the whole select so the
  // bind/rewrite/execute phases all land in one trace; the TLS binding
  // lets the buffer pool and WAL attach their I/O to this query.
  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>(options.trace_max_spans);
  }
  Tracer::ThreadBinding binding(tracer.get());

  PlanNodePtr plan;
  {
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) span.emplace(tracer.get(), "query", "bind");
    Binder binder(&catalog_, &vtables_, options_.binder);
    WSQ_ASSIGN_OR_RETURN(plan, binder.Bind(stmt));
  }
  if (options.async_iteration) {
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) {
      span.emplace(tracer.get(), "query", "rewrite");
    }
    WSQ_ASSIGN_OR_RETURN(
        plan, ApplyAsyncIteration(std::move(plan), options.rewrite));
  }

  // Per-query budget: a child of the database budget, so the tighter
  // of the per-query and database/process limits wins. Everything the
  // operators reserve flows up this chain; the budget must outlive the
  // operator tree, which ExecutePlan guarantees (the tree dies inside
  // the call).
  MemoryBudget query_budget("query", options.memory_budget_bytes,
                            &memory_budget_);
  uint64_t db_pressure_before =
      memory_budget_.stats().pressure_released_bytes;
  ExecContext ctx;
  ctx.pump = &pump_;
  ctx.token = token;
  ctx.tracer = tracer.get();
  ctx.profile = options.analyze;
  ctx.shard = options.shard;
  ctx.memory = &query_budget;
  ctx.spill = spill_.get();
  PlanProfileNode profile;
  Stopwatch timer;
  Result<ResultSet> executed = [&]() -> Result<ResultSet> {
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) {
      span.emplace(tracer.get(), "query", "execute");
    }
    return ExecutePlan(*plan, &ctx,
                       options.analyze ? &profile : nullptr);
  }();
  QueryStats& stats = ctx.stats;
  stats.elapsed_micros = timer.ElapsedMicros();
  stats.async_iteration = options.async_iteration;
  stats.peak_memory_bytes = query_budget.peak_used();
  stats.pressure_released_bytes =
      query_budget.stats().pressure_released_bytes +
      (memory_budget_.stats().pressure_released_bytes - db_pressure_before);
  if (!executed.ok()) {
    if (tracer != nullptr) {
      tracer->Event("query", "error",
                    std::string(StatusCodeToString(
                        executed.status().code())));
    }
    // A dying query still reports what it did (failed external calls,
    // spill activity, peak memory) for the postmortem.
    *failure_stats = stats;
    return executed.status();
  }

  QueryExecution out;
  out.result = std::move(executed).value();
  out.stats = stats;
  if (options.analyze) out.profile = std::move(profile);
  if (tracer != nullptr) out.trace = tracer->Finish();
  return out;
}

Result<QueryExecution> WsqDatabase::ExecuteCreateTable(
    const CreateTableStatement& stmt) {
  if (vtables_.Has(stmt.table)) {
    return Status::AlreadyExists(
        "name is taken by a virtual table: " + stmt.table);
  }
  Schema schema;
  for (const ColumnDef& def : stmt.columns) {
    schema.AddColumn(Column(def.name, def.type));
  }
  WSQ_RETURN_IF_ERROR(catalog_.CreateTable(stmt.table, schema).status());
  return QueryExecution{};
}

Result<QueryExecution> WsqDatabase::ExecuteCreateIndex(
    const CreateIndexStatement& stmt) {
  WSQ_ASSIGN_OR_RETURN(TableInfo * table, catalog_.GetTable(stmt.table));
  // Index names are unique database-wide.
  for (const std::string& name : catalog_.ListTables()) {
    TableInfo* t = *catalog_.GetTable(name);
    for (const auto& index : t->indexes()) {
      if (EqualsIgnoreCase(index->name(), stmt.index)) {
        return Status::AlreadyExists("index already exists: " +
                                     stmt.index);
      }
    }
  }
  WSQ_RETURN_IF_ERROR(
      table->CreateIndex(stmt.index, stmt.column, &buffer_pool_)
          .status());
  return QueryExecution{};
}

Result<QueryExecution> WsqDatabase::ExecuteInsert(
    const InsertStatement& stmt) {
  WSQ_ASSIGN_OR_RETURN(TableInfo * table, catalog_.GetTable(stmt.table));
  const Schema empty;
  const Row no_row;
  for (const auto& values : stmt.rows) {
    Row row;
    for (size_t i = 0; i < values.size(); ++i) {
      WSQ_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           Binder::BindScalar(*values[i], empty));
      WSQ_ASSIGN_OR_RETURN(Value v, bound->Eval(no_row));
      // Widen INT literals destined for DOUBLE columns.
      if (i < table->schema().NumColumns() &&
          table->schema().column(i).type == TypeId::kDouble &&
          v.is_int()) {
        v = Value::Real(static_cast<double>(v.AsInt()));
      }
      row.Append(std::move(v));
    }
    WSQ_RETURN_IF_ERROR(table->Insert(row));
  }
  return QueryExecution{};
}

Result<QueryExecution> WsqDatabase::ExecuteDelete(
    const DeleteStatement& stmt) {
  WSQ_ASSIGN_OR_RETURN(TableInfo * table, catalog_.GetTable(stmt.table));
  BoundExprPtr predicate;
  if (stmt.where != nullptr) {
    WSQ_ASSIGN_OR_RETURN(predicate,
                         Binder::BindScalar(*stmt.where, table->schema()));
  }

  // Collect matching rids first, then tombstone (no iterator
  // invalidation concerns).
  std::vector<Rid> victims;
  {
    HeapFileScanner scanner(table->heap());
    Rid rid;
    std::string bytes;
    while (true) {
      WSQ_ASSIGN_OR_RETURN(bool more, scanner.Next(&rid, &bytes));
      if (!more) break;
      if (predicate != nullptr) {
        WSQ_ASSIGN_OR_RETURN(Row row, DeserializeRow(bytes));
        WSQ_ASSIGN_OR_RETURN(bool match, EvalPredicate(*predicate, row));
        if (!match) continue;
      }
      victims.push_back(rid);
    }
  }
  for (const Rid& rid : victims) {
    WSQ_RETURN_IF_ERROR(table->Delete(rid));  // maintains indexes
  }

  QueryExecution out;
  out.result.schema = Schema({Column("Deleted", TypeId::kInt64, "")});
  out.result.rows.push_back(
      Row({Value::Int(static_cast<int64_t>(victims.size()))}));
  return out;
}

Result<QueryExecution> WsqDatabase::ExecuteUpdate(
    const UpdateStatement& stmt) {
  WSQ_ASSIGN_OR_RETURN(TableInfo * table, catalog_.GetTable(stmt.table));
  const Schema& schema = table->schema();

  BoundExprPtr predicate;
  if (stmt.where != nullptr) {
    WSQ_ASSIGN_OR_RETURN(predicate,
                         Binder::BindScalar(*stmt.where, schema));
  }
  // Bind assignments: column index + value expression over the old row.
  std::vector<std::pair<size_t, BoundExprPtr>> assignments;
  for (const UpdateStatement::Assignment& a : stmt.assignments) {
    WSQ_ASSIGN_OR_RETURN(size_t col, schema.Find("", a.column));
    for (const auto& [existing, unused] : assignments) {
      if (existing == col) {
        return Status::BindError("column assigned twice: " + a.column);
      }
    }
    WSQ_ASSIGN_OR_RETURN(BoundExprPtr value,
                         Binder::BindScalar(*a.value, schema));
    assignments.emplace_back(col, std::move(value));
  }

  // Materialize the new rows first, then delete + reinsert (a tombstone
  // plus append; rids are not stable across updates).
  std::vector<std::pair<Rid, Row>> updates;
  {
    HeapFileScanner scanner(table->heap());
    Rid rid;
    std::string bytes;
    while (true) {
      WSQ_ASSIGN_OR_RETURN(bool more, scanner.Next(&rid, &bytes));
      if (!more) break;
      WSQ_ASSIGN_OR_RETURN(Row row, DeserializeRow(bytes));
      if (predicate != nullptr) {
        WSQ_ASSIGN_OR_RETURN(bool match, EvalPredicate(*predicate, row));
        if (!match) continue;
      }
      Row updated = row;
      for (const auto& [col, value] : assignments) {
        WSQ_ASSIGN_OR_RETURN(Value v, value->Eval(row));
        if (schema.column(col).type == TypeId::kDouble && v.is_int()) {
          v = Value::Real(static_cast<double>(v.AsInt()));
        }
        updated.value(col) = std::move(v);
      }
      updates.emplace_back(rid, std::move(updated));
    }
  }
  for (auto& [rid, row] : updates) {
    WSQ_RETURN_IF_ERROR(table->Delete(rid));  // maintains indexes
    WSQ_RETURN_IF_ERROR(table->Insert(row));
  }

  QueryExecution out;
  out.result.schema = Schema({Column("Updated", TypeId::kInt64, "")});
  out.result.rows.push_back(
      Row({Value::Int(static_cast<int64_t>(updates.size()))}));
  return out;
}

}  // namespace wsq
