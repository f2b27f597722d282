#ifndef WSQ_EXEC_EXECUTOR_H_
#define WSQ_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "async/req_pump.h"
#include "common/cancellation.h"
#include "common/memory.h"
#include "exec/operator.h"
#include "net/shard_policy.h"
#include "obs/op_profile.h"
#include "obs/query_stats.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"

namespace wsq {

class SpillManager;  // storage/spill.h

/// Shared execution state: the ReqPump for external calls, the
/// per-query governors, and the query's counters. Operators run on the
/// executor thread only and bump `stats` directly, so the counts are
/// this query's under both execution strategies even while other
/// queries share the pump.
struct ExecContext {
  ReqPump* pump = nullptr;
  /// Per-query governor state: deadline + cooperative cancellation.
  /// BuildOperatorTree installs it on every operator; null = ungoverned.
  /// Must outlive the operator tree.
  const CancellationToken* token = nullptr;
  /// Per-query trace recorder; null = tracing off. Owned by the caller,
  /// used only from the executor thread.
  Tracer* tracer = nullptr;
  /// When true, BuildOperatorTree enables per-operator profiling
  /// (EXPLAIN ANALYZE) on every operator it creates.
  bool profile = false;
  /// Per-query partial-result policy for sharded search backends;
  /// copied into every VTableRequest the scans build.
  ShardOptions shard;
  /// Per-query memory budget (child of the database budget); null =
  /// ungoverned. Operators charge their materialized state here and
  /// degrade (spill, backpressure) when a reservation fails. Must
  /// outlive the operator tree.
  MemoryBudget* memory = nullptr;
  /// Spill scratch-file factory; null disables spilling (a failed
  /// reservation then fails the query with kResourceExhausted).
  SpillManager* spill = nullptr;
  /// This query's counters. Execute fills in the rest (elapsed time,
  /// peak memory) and returns them in QueryExecution::stats.
  QueryStats stats;
  /// The calls this query's scans registered (EVScan and AEVScan issue
  /// theirs through one path, VScanBase::IssueCall), each id charged to
  /// `memory` through `issued_calls_charge`. An EVScan that takes its
  /// own result removes its id and its charge; one the query stopped
  /// first stays. After the root closes, ExecutePlan cancels and takes
  /// the ones nothing consumed, then clears the list and releases the
  /// charge. Executor thread only.
  std::vector<CallId> issued_calls;
  MemoryReservation issued_calls_charge;
};

/// A fully-materialized query result.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;

  /// Fixed-width table rendering with a header row.
  std::string ToString(size_t max_rows = 0) const;
};

/// Compiles a logical plan into a physical operator tree. `ctx->pump`
/// is required when the plan contains external scans or ReqSyncs;
/// `ctx` must outlive the returned operators. Closing the returned
/// root does not release calls that nothing consumed (those whose
/// placeholder tuples were dropped below a ReqSync, or never emitted):
/// only ExecutePlan's sweep of `ctx->issued_calls` does.
Result<OperatorPtr> BuildOperatorTree(const PlanNode& plan,
                                      ExecContext* ctx);

/// Builds, opens, drains, and closes the plan, then cancels and takes
/// every call in `ctx->issued_calls` that nothing consumed, on success
/// and on every error exit. With `profile_out`
/// non-null, `ctx->profile` is forced on and the annotated operator
/// tree (EXPLAIN ANALYZE) is written there on success.
Result<ResultSet> ExecutePlan(const PlanNode& plan, ExecContext* ctx,
                              PlanProfileNode* profile_out = nullptr);

}  // namespace wsq

#endif  // WSQ_EXEC_EXECUTOR_H_
