#ifndef WSQ_EXEC_EXECUTOR_H_
#define WSQ_EXEC_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "async/req_pump.h"
#include "common/cancellation.h"
#include "common/memory.h"
#include "exec/operator.h"
#include "net/shard_policy.h"
#include "obs/op_profile.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"

namespace wsq {

class SpillManager;  // storage/spill.h

/// Shared execution state: the ReqPump for asynchronous calls plus a
/// counter of the external calls this query's scans issue, so
/// QueryStats can report call counts for both execution strategies
/// even while other queries share the pump. The degradation
/// counters are bumped by ReqSync operators applying an OnCallError
/// policy (kDropTuple / kNullPad) so QueryStats can report how much of
/// the answer was affected by failed external calls.
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
  /// External calls issued by EVScan (blocking) and AEVScan (async).
  std::atomic<uint64_t> external_calls{0};
  /// External calls that completed with a non-OK status.
  std::atomic<uint64_t> failed_calls{0};
  /// Tuples cancelled under OnCallError::kDropTuple.
  std::atomic<uint64_t> dropped_tuples{0};
  /// Tuples completed with NULLs under OnCallError::kNullPad.
  std::atomic<uint64_t> null_padded_tuples{0};
  /// Outstanding external calls cancelled because no tuple would use
  /// their answers: calls a ReqSync still awaited at Close (complete
  /// output, early stop, error or abort), and calls ExecutePlan found
  /// unconsumed after the root closed.
  std::atomic<uint64_t> cancelled_calls{0};
  /// Every call this query's AEVScans registered, each id charged to
  /// `memory` through `issued_calls_charge`. After the root closes,
  /// ExecutePlan cancels and takes the ones nothing consumed, then
  /// clears the list and releases the charge. Executor thread only.
  std::vector<CallId> issued_calls;
  MemoryReservation issued_calls_charge;
  /// Pending tuples shed by a ReqSync buffer budget in shed-oldest mode.
  std::atomic<uint64_t> shed_tuples{0};
  /// Peak pending tuples / approximate bytes buffered by any ReqSync
  /// (max across operators; see ReqSyncNode::max_buffered_rows).
  std::atomic<uint64_t> reqsync_peak_rows{0};
  std::atomic<uint64_t> reqsync_peak_bytes{0};
  /// External calls that completed OK but merged from a strict subset
  /// of shards (quorum / best-effort degradation), and the total shards
  /// missing across those calls (CallResult::degraded_shards).
  std::atomic<uint64_t> partial_results{0};
  std::atomic<uint64_t> degraded_shards{0};
  /// Memory governor: bytes written to spill runs / runs written by
  /// Sort+Aggregate operators degrading under a failed reservation.
  std::atomic<uint64_t> spilled_bytes{0};
  std::atomic<uint64_t> spill_runs{0};
};

/// A fully-materialized query result.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;

  /// Fixed-width table rendering with a header row.
  std::string ToString(size_t max_rows = 0) const;
};

/// Compiles a logical plan into a physical operator tree. `ctx->pump`
/// is required when the plan contains asynchronous scans or ReqSyncs;
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
