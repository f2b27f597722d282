#ifndef WSQ_WSQ_DATABASE_H_
#define WSQ_WSQ_DATABASE_H_

#include <memory>
#include <string>

#include "async/req_pump.h"
#include "catalog/catalog.h"
#include "common/cancellation.h"
#include "common/memory.h"
#include "exec/executor.h"
#include "net/search_service.h"
#include "obs/op_profile.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "plan/async_rewriter.h"
#include "plan/binder.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/spill.h"
#include "storage/wal.h"
#include "vtab/virtual_table.h"
#include "wsq/admission.h"

namespace wsq {

struct QueryExecution {
  ResultSet result;
  QueryStats stats;
  /// Annotated operator tree; filled when ExecOptions::analyze was set
  /// (EXPLAIN ANALYZE / \analyze).
  std::optional<PlanProfileNode> profile;
  /// Structured spans; filled when ExecOptions::trace was set.
  std::optional<QueryTrace> trace;
};

/// The WSQ system facade: a Redbase-style relational engine (catalog,
/// storage, SQL front end, iterator executor) extended with Web virtual
/// tables and asynchronous iteration — the full system of the paper.
///
/// Thread contract: Execute of SELECT or EXPLAIN statements, and
/// DsqEngine::Explain, may run concurrently on one database from any
/// number of threads. Their external calls share the database's ReqPump,
/// where identical calls join one dispatch, and each
/// statement's QueryStats counts its own calls. DDL (CREATE, DROP), DML
/// (INSERT, UPDATE, DELETE) and Checkpoint running concurrently with
/// other statements are not covered yet.
class WsqDatabase {
 public:
  struct Options {
    size_t buffer_pool_pages = 256;
    ReqPump::Limits pump_limits;
    /// Overload admission control for Execute (default: off).
    AdmissionLimits admission;
    BinderOptions binder;
    /// Durability discipline for the database file and its WAL
    /// (file-backed databases only). kFull fsyncs at the checkpoint
    /// commit point; kFlush stops at the OS page cache; kNone is for
    /// benchmarks and throwaway data.
    SyncPolicy sync_policy = SyncPolicy::kFull;
    /// Run a final Checkpoint() from the destructor. Turned off by the
    /// crash harness, which wants the last checkpoint — not a clean
    /// shutdown — to be the durable truth.
    bool checkpoint_on_close = true;
    /// Database-wide slow-query threshold: statements whose wall time
    /// reaches it are reported to `query_log_sink`. 0 disables slow
    /// reporting; ExecOptions::slow_query_micros overrides per query.
    int64_t slow_query_micros = 0;
    /// Destination for query records: slow statements, and postmortems
    /// of every bad ending (failure, partial results, degraded tuples),
    /// at most one call per statement (see QueryLog). Null = stderr.
    /// Postmortems are always on; disable by sinking to a no-op lambda.
    QueryLog::Sink query_log_sink;
    /// At most one emitted postmortem per interval (0 = unlimited);
    /// suppressed records still update `query_log()->last()`.
    int64_t postmortem_min_interval_micros = 0;
    /// Database-wide memory budget (a child of the process budget),
    /// covering operator state, ReqSync buffers, the buffer pool, and
    /// any attached result cache. 0 = unlimited (everything is still
    /// tracked, nothing ever fails). On exhaustion the degradation
    /// ladder runs: operators spill, caches shed, and finally new
    /// statements are refused with kResourceExhausted.
    size_t memory_budget_bytes = 0;
    /// Allow Sort/Aggregate to spill sorted runs to temp files when a
    /// reservation fails (tier 1). Off = a failed reservation fails
    /// the query instead.
    bool enable_spill = true;
    /// Directory for spill temp files; empty = $TMPDIR, else /tmp.
    std::string spill_dir;
  };

  /// In-memory database (tests, examples, benches).
  WsqDatabase() : WsqDatabase(Options()) {}
  explicit WsqDatabase(const Options& options);

  /// Opens (creating if absent) a file-backed database at `path`, with
  /// its write-ahead log at `path + ".wal"`. A checkpoint interrupted
  /// by a crash is finished (replayed) or rolled back (discarded) here,
  /// before the catalog is read. Stored tables persist across opens;
  /// virtual tables and search engines are re-registered per process.
  /// Call Checkpoint() (also run by the destructor) to persist catalog
  /// changes and dirty pages atomically.
  static Result<std::unique_ptr<WsqDatabase>> Open(
      const std::string& path, const Options& options);
  static Result<std::unique_ptr<WsqDatabase>> Open(
      const std::string& path) {
    return Open(path, Options());
  }

  /// Same open protocol over caller-supplied devices (which must
  /// outlive the database) — the seam the crash-injection harness uses
  /// to run a real database on simulated storage.
  static Result<std::unique_ptr<WsqDatabase>> OpenWithStorage(
      DiskManager* disk, WalStorage* wal, const Options& options);

  ~WsqDatabase();

  /// Atomically persists the catalog and every dirty page: the images
  /// are first hardened in the WAL (the commit record is the commit
  /// point), then installed into the database file, then the log is
  /// truncated. A crash anywhere in between leaves the database in
  /// exactly the pre- or post-checkpoint state after the next Open.
  /// Only valid for file-backed databases.
  Status Checkpoint();

  bool persistent() const { return persistent_; }

  /// What recovery did during Open (kNone after a clean shutdown).
  const WalRecoveryResult& last_recovery() const { return last_recovery_; }

  WsqDatabase(const WsqDatabase&) = delete;
  WsqDatabase& operator=(const WsqDatabase&) = delete;

  /// Registers search engine `engine_name`, creating virtual tables
  /// WebPages_<engine_name> and WebCount_<engine_name>. The first
  /// registered engine also gets the unsuffixed aliases WebPages and
  /// WebCount (the paper's convention: "WebPages_AV ... and similar
  /// virtual tables for Google or any other search engine").
  /// `service` must outlive this database.
  Status RegisterSearchEngine(const std::string& engine_name,
                              SearchService* service, bool supports_near);

  /// Per-query controls.
  struct ExecOptions {
    /// Apply the asynchronous-iteration rewrite (paper §4). Off = the
    /// conventional sequential execution the paper benchmarks against.
    bool async_iteration = true;
    /// The rewrite's knobs, including `on_call_error`, the degradation
    /// policy for failed external calls.
    RewriteOptions rewrite;
    /// Absolute budget for the whole query, measured from Execute();
    /// 0 = none. On expiry the query aborts with kDeadlineExceeded and
    /// the remaining budget clamps every external call's timeout at
    /// issue time.
    int64_t deadline_micros = 0;
    /// Caller-owned cancellation token (must outlive Execute); lets
    /// another thread abort the query with kCancelled. Null = Execute
    /// uses a private token (deadline_micros still applies).
    CancellationToken* cancel = nullptr;
    /// Collect per-operator profiles (rows, calls, self/total time,
    /// ReqSync blocked time) and fill QueryExecution::profile. This is
    /// what EXPLAIN ANALYZE and the shell's \analyze turn on.
    bool analyze = false;
    /// Record structured trace spans and fill QueryExecution::trace.
    bool trace = false;
    /// Span budget when `trace` is set; 0 = Tracer::kDefaultMaxSpans.
    size_t trace_max_spans = 0;
    /// Per-query slow-query threshold: -1 inherits the database
    /// default, 0 disables slow reporting for this query (postmortems
    /// still apply), > 0 overrides.
    int64_t slow_query_micros = -1;
    /// Partial-result policy when a search backend is sharded: fail the
    /// call unless all shards answer (default), accept K-of-N, or take
    /// whatever answers (see net/shard_policy.h). Ignored by unsharded
    /// backends.
    ShardOptions shard;
    /// Per-query memory cap, enforced as a child of the database
    /// budget (so the tighter of the two wins). 0 = no per-query cap;
    /// the database/process budgets still apply.
    size_t memory_budget_bytes = 0;
  };

  /// Executes SELECT / CREATE TABLE / INSERT / EXPLAIN. For EXPLAIN the
  /// plan text is returned as a single-column result.
  Result<QueryExecution> Execute(const std::string& sql,
                                 const ExecOptions& options);
  Result<QueryExecution> Execute(const std::string& sql) {
    return Execute(sql, ExecOptions{});
  }

  /// The logical plan text for a SELECT, after the async rewrite when
  /// `async` is set.
  Result<std::string> ExplainSelect(const std::string& sql, bool async,
                                    RewriteOptions rewrite = {});

  Catalog* catalog() { return &catalog_; }
  VirtualTableRegistry* vtables() { return &vtables_; }
  ReqPump* pump() { return &pump_; }
  BufferPool* buffer_pool() { return &buffer_pool_; }
  AdmissionController* admission() { return &admission_; }
  /// Database-wide memory budget (attach shared caches here).
  MemoryBudget* memory_budget() { return &memory_budget_; }
  SpillManager* spill() { return spill_.get(); }
  /// Slow-query lines and degraded/failed-query postmortems (the
  /// shell's \postmortem).
  QueryLog* query_log() { return &query_log_; }

 private:
  WsqDatabase(const Options& options, std::unique_ptr<DiskManager> owned_disk,
              DiskManager* disk, std::unique_ptr<WalStorage> owned_wal,
              WalStorage* wal, bool persistent);

  /// Shared tail of Open/OpenWithStorage: crash recovery, then either
  /// bootstrap of a fresh catalog (checkpointed immediately, so even a
  /// process killed right after Open leaves a valid file) or load of
  /// the existing one.
  static Result<std::unique_ptr<WsqDatabase>> OpenImpl(
      std::unique_ptr<WsqDatabase> db);

  /// Execute minus the per-query observability wrapper (query id,
  /// registry counters/latency histogram, query log).
  /// On failure, whatever stats the query accumulated before dying are
  /// left in `*failure_stats` (zeroes when it never reached execution)
  /// so the wrapper can still attribute degradation.
  Result<QueryExecution> ExecuteInternal(const std::string& sql,
                                         const ExecOptions& options,
                                         QueryStats* failure_stats);

  Result<QueryExecution> ExecuteSelect(const SelectStatement& stmt,
                                       const ExecOptions& options,
                                       const CancellationToken* token,
                                       QueryStats* failure_stats);
  /// The plan text of EXPLAIN and ExplainSelect: `stmt` bound, rewritten
  /// for async iteration when `async` is set, and its cost line.
  Result<std::string> ExplainPlan(const SelectStatement& stmt, bool async,
                                  const RewriteOptions& rewrite);
  Result<QueryExecution> ExecuteCreateTable(
      const CreateTableStatement& stmt);
  Result<QueryExecution> ExecuteCreateIndex(
      const CreateIndexStatement& stmt);
  Result<QueryExecution> ExecuteInsert(const InsertStatement& stmt);
  Result<QueryExecution> ExecuteDelete(const DeleteStatement& stmt);
  Result<QueryExecution> ExecuteUpdate(const UpdateStatement& stmt);

  Options options_;
  std::unique_ptr<DiskManager> owned_disk_;  // null for OpenWithStorage
  DiskManager* disk_;
  std::unique_ptr<WalStorage> owned_wal_;  // null for OpenWithStorage
  WalStorage* wal_;                        // null for in-memory databases
  bool persistent_ = false;
  WalRecoveryResult last_recovery_;
  /// Declared before (so destroyed after) every component that holds
  /// charges or pressure hooks against it: buffer pool, spill manager,
  /// and any caller-attached cache released via our destructor order.
  MemoryBudget memory_budget_;
  std::unique_ptr<SpillManager> spill_;
  BufferPool buffer_pool_;
  Catalog catalog_;
  VirtualTableRegistry vtables_;
  ReqPump pump_;
  AdmissionController admission_;
  QueryLog query_log_;
  /// wsq_mem_* collector handle, removed in the destructor.
  uint64_t mem_collector_id_ = 0;
};

}  // namespace wsq

#endif  // WSQ_WSQ_DATABASE_H_
