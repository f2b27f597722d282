#ifndef WSQ_EXEC_OPERATOR_H_
#define WSQ_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/op_profile.h"
#include "obs/query_stats.h"
#include "obs/trace.h"
#include "types/row.h"
#include "types/schema.h"

namespace wsq {

struct CallResult;

/// Physical operator in the paper's iterator model [Gra93]: Open /
/// GetNext (here `Next`) / Close. `schema` points into the logical plan
/// node, which outlives the operator tree.
///
/// Cooperative cancellation: BuildOperatorTree installs the query's
/// CancellationToken on every operator; loops that can run long — per
/// tuple in Next, per child row in a blocking Open drain — call
/// CheckAlive() so a cancelled or deadline-expired query aborts between
/// tuples (kCancelled / kDeadlineExceeded) instead of running to
/// completion. The executor's error-path Close cascade then cancels
/// any outstanding external calls.
///
/// Observability: Open/Next/Close are non-virtual wrappers around the
/// OpenImpl/NextImpl/CloseImpl virtuals. With profiling enabled
/// (EXPLAIN ANALYZE) the wrappers accumulate an OpProfile — call
/// counts, rows out, per-phase wall time; with a tracer attached they
/// additionally emit "op" spans for Open and Close (Next is aggregated,
/// never per-call, to keep span budgets sane). When neither is on, the
/// wrapper is a single branch on top of the virtual call.
class Operator {
 public:
  explicit Operator(const Schema* schema) : schema_(schema) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  Status Open() {
    if (!profile_on_ && tracer_ == nullptr) return OpenImpl();
    return OpenInstrumented();
  }

  /// Produces the next tuple into `row`; returns false at end of
  /// stream. `row` is only valid when true is returned.
  Result<bool> Next(Row* row) {
    if (!profile_on_) return NextImpl(row);
    int64_t start = NowMicros();
    Result<bool> got = NextImpl(row);
    profile_.next_calls++;
    profile_.next_micros += NowMicros() - start;
    if (got.ok() && got.value()) profile_.rows_out++;
    return got;
  }

  Status Close() {
    if (!profile_on_ && tracer_ == nullptr) return CloseImpl();
    return CloseInstrumented();
  }

  const Schema& schema() const { return *schema_; }

  /// Installs the query's cancellation token (may be null: ungoverned
  /// query). Called once by BuildOperatorTree before Open.
  void SetCancelToken(const CancellationToken* token) { cancel_ = token; }

  /// Attaches the query's tracer and/or enables profiling. Called once
  /// by BuildOperatorTree before Open; `label` is the plan node label
  /// used in spans and the EXPLAIN ANALYZE tree.
  void SetObservability(Tracer* tracer, bool profile, std::string label) {
    tracer_ = tracer;
    profile_on_ = profile;
    label_ = std::move(label);
  }

  const OpProfile& profile() const { return profile_; }
  const std::string& label() const { return label_; }

  /// Builds this operator's annotated-plan subtree (EXPLAIN ANALYZE).
  /// self time = own total minus the children's totals, clamped at 0.
  PlanProfileNode BuildProfileTree() const;

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(Row* row) = 0;
  virtual Status CloseImpl() = 0;

  /// OK while the query may keep running; kCancelled/kDeadlineExceeded
  /// once the governor has pulled the plug.
  Status CheckAlive() const {
    return cancel_ == nullptr ? Status::OK() : cancel_->CheckAlive();
  }

  const CancellationToken* cancel_token() const { return cancel_; }

  /// Null when tracing is off; instrumentation sites branch on it.
  Tracer* tracer() const { return tracer_; }
  bool profiling() const { return profile_on_; }

  /// Mutable profile hooks for subclasses that track operator-specific
  /// costs (external calls issued, ReqSync blocked time).
  void CountCallIssued() { profile_.calls_issued++; }
  void AddBlockedMicros(int64_t micros) {
    profile_.blocked_on_sync_micros += micros;
  }
  /// Counts what the pump's answer to `call` tells the query: whether
  /// the call was hedged and the hedge answered, and an OK answer from a
  /// strict subset of its backend's shards (the quorum policy accepted
  /// the loss, but the coverage gap shows in the query's `stats`,
  /// EXPLAIN ANALYZE and the trace, as a `layer`/"partial" event).
  void CountCallResult(QueryStats* stats, const char* layer, CallId call,
                       const CallResult& result);
  /// Memory-governor hooks: bytes written to a spill run, and the
  /// high-water mark of this operator's tracked reservation. Recorded
  /// unconditionally (not gated on profile_on_) — they are cheap and
  /// the shell's degradation notice needs them even without \analyze.
  void CountSpill(uint64_t bytes, uint64_t runs) {
    profile_.spilled_bytes += bytes;
    profile_.spill_runs += runs;
  }
  void RecordPeakBytes(uint64_t bytes) {
    if (bytes > profile_.peak_bytes) profile_.peak_bytes = bytes;
  }

  /// Registers a child for the profile tree; subclasses that own child
  /// operators call this from their constructor. `child` must outlive
  /// this operator (it does: the tree owns children via OperatorPtr).
  void AddChild(const Operator* child) { children_.push_back(child); }

 private:
  Status OpenInstrumented();
  Status CloseInstrumented();

  const Schema* schema_;
  const CancellationToken* cancel_ = nullptr;
  Tracer* tracer_ = nullptr;
  bool profile_on_ = false;
  std::string label_;
  OpProfile profile_;
  std::vector<const Operator*> children_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// A virtual table scan that receives dependent-join bindings before
/// each (re-)Open: term index (1-based) → value.
class VScanOperator : public Operator {
 public:
  explicit VScanOperator(const Schema* schema) : Operator(schema) {}

  /// Replaces the dependent term bindings; takes effect at next Open().
  virtual void BindTerms(
      std::vector<std::pair<size_t, Value>> bindings) = 0;
};

}  // namespace wsq

#endif  // WSQ_EXEC_OPERATOR_H_
