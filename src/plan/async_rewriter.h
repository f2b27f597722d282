#ifndef WSQ_PLAN_ASYNC_REWRITER_H_
#define WSQ_PLAN_ASYNC_REWRITER_H_

#include "common/result.h"
#include "plan/logical_plan.h"

namespace wsq {

/// Knobs for the asynchronous-iteration rewrite; the non-default modes
/// exist for the §4.5.4 ablation benches.
struct RewriteOptions {
  /// Skip percolation: ReqSync stays at its insertion point (directly
  /// above each AEVScan's enclosing dependent join). This caps
  /// concurrency at one join's worth of calls.
  bool insert_only = false;
  /// Merge adjacent ReqSync operators (§4.5.3).
  bool consolidate = true;
  /// Rewrite clashing joins as selections over cross-products (§4.5.2).
  bool rewrite_clashing_joins = true;
  /// Use streaming ReqSyncs (emit completed tuples before the child is
  /// exhausted) instead of the paper's full-buffering default.
  bool streaming_reqsync = false;
  /// Degradation policy applied to every ReqSync in the plan: what to
  /// do with tuples whose external call fails or times out.
  OnCallError on_call_error = OnCallError::kFailQuery;
};

/// Applies the paper's §4.5 algorithm to a bound plan:
///  1. Insertion  — every EVScan becomes an AEVScan with a ReqSync above
///     it (above its enclosing dependent join / cross product, the
///     lowest executable position).
///  2. Percolation — ReqSync operators are pulled up past non-clashing
///     operators; clashing selections are hoisted out of the way;
///     clashing joins become σ over ×.
///  3. Consolidation — adjacent ReqSyncs merge.
///
/// An operator O *clashes* with ReqSync (attribute set A) iff O depends
/// on a value in A, projects a column of A away, or is
/// aggregation/duplicate/cardinality-sensitive (Aggregate, Distinct,
/// Limit). Sort is conservatively treated as clashing even on
/// non-A keys because ReqSync emits tuples in completion order and
/// would destroy the sort.
Result<PlanNodePtr> ApplyAsyncIteration(
    PlanNodePtr plan, RewriteOptions options = RewriteOptions());

/// Number of ReqSync operators in the plan (tests/benches).
size_t CountReqSyncs(const PlanNode& plan);

/// Number of EVScan nodes marked async.
size_t CountAsyncScans(const PlanNode& plan);

}  // namespace wsq

#endif  // WSQ_PLAN_ASYNC_REWRITER_H_
