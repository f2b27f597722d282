#ifndef WSQ_EXEC_REQ_SYNC_OP_H_
#define WSQ_EXEC_REQ_SYNC_OP_H_

#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "async/req_pump.h"
#include "common/memory.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace wsq {

/// The paper's ReqSync operator (§4.1, §4.3–4.4).
///
/// Open() drains the child, buffering incomplete tuples indexed by the
/// pending calls they wait on; complete tuples pass straight to the
/// ready queue. Next() serves ready tuples, blocking on ReqPump
/// completions otherwise. When a call completes with n result rows,
/// each waiting tuple is cancelled (n=0), completed (n=1), or
/// proliferated into n patched copies (n>1) — copies inherit
/// placeholders for other still-pending calls (§4.4).
///
/// A call that completes with an ERROR (engine failure, deadline
/// exceeded) is handled per the node's OnCallError policy: fail the
/// query, cancel the waiting tuples, or complete them with NULLs.
///
/// Buffer bound: every buffered tuple's bytes — proliferation copies
/// included — are charged to the query MemoryBudget
/// (ExecContext::memory) through a MemoryReservation; ForceAdd, since
/// the tuple already exists. When the budget has no headroom while
/// tuples are buffered, ReqSync applies backpressure: it stops pulling
/// from the child and processes completions until there is room, so
/// the calls already in flight drain the buffer and no tuple is lost.
/// Every erase path (completion, degradation, Close) releases the
/// matching charge so the ledger balances to zero.
///
/// Thread model: operators are driven by a single executor thread, so
/// this class has no lock and no WSQ_GUARDED_BY state of its own, and
/// it counts failures, degradation and its buffer peaks straight into
/// ExecContext::stats; all cross-thread coordination happens inside the
/// ReqPump (ctx->pump) it polls.
class ReqSyncOperator : public Operator {
 public:
  ReqSyncOperator(const ReqSyncNode* node, OperatorPtr child, ExecContext* ctx)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)),
        pump_(ctx->pump),
        ctx_(ctx) {
    AddChild(child_.get());
  }

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;

  /// Cancels every call still awaited (no tuple will use its answer:
  /// complete output, early stop, or error) and takes its result
  /// without blocking, so nothing accumulates in the shared ReqPumpHash
  /// and Close never waits on the network; then closes the child.
  Status CloseImpl() override;

 private:
  struct Entry {
    Row row;
    std::set<CallId> pending;
    /// ApproxBytes of `row` at insertion, so erasure balances exactly.
    size_t bytes = 0;
  };

  /// Applies one completed call to every tuple waiting on it.
  Status ProcessCompletion(CallId call, const CallResult& result);

  /// Applies the node's OnCallError policy to a failed call. Returns
  /// the call's error under kFailQuery; otherwise degrades the waiting
  /// tuples and returns OK.
  Status DegradeFailedCall(CallId call, const Status& error);

  /// Classifies one child row into the ready queue or the wait index.
  void Absorb(Row row);

  /// Non-blocking: drains every already-completed call we wait on.
  /// Returns true if any tuple changed state.
  Result<bool> PollCompletions();

  /// WaitForCompletionBeyond wrapper that, under profiling/tracing,
  /// accumulates OpProfile::blocked_on_sync_micros and emits a
  /// "reqsync.wait" span. This blocked time is the paper's async win in
  /// one number: waits overlap all in-flight calls, so it approaches
  /// the MAX of their latencies instead of the sum.
  void BlockedWait(uint64_t seq);

  /// Replaces placeholders of `call` in `row` with `values` fields.
  static Result<Row> PatchRow(const Row& row, CallId call,
                              const Row& values);

  void AddEntry(Row row, std::set<CallId> pending);

  /// True while the buffer can absorb one more pending tuple.
  bool HasRoom() const;
  /// Backpressure: blocks (processing completions) until HasRoom().
  /// No-op without a query budget.
  Status WaitForRoom();

  const ReqSyncNode* node_;
  OperatorPtr child_;
  ReqPump* pump_;
  ExecContext* ctx_;
  /// Tracks buffered-tuple bytes against the query budget; mirrors
  /// buffered_bytes_ exactly (one charge per Entry::bytes).
  MemoryReservation mem_;
  bool child_drained_ = false;

  uint64_t next_entry_id_ = 1;
  /// Keyed by entry id (= insertion order).
  std::map<uint64_t, Entry> entries_;
  std::unordered_map<CallId, std::vector<uint64_t>> waiters_;
  std::deque<Row> ready_;
  /// Sum of Entry::bytes across entries_.
  size_t buffered_bytes_ = 0;
};

}  // namespace wsq

#endif  // WSQ_EXEC_REQ_SYNC_OP_H_
