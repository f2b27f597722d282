#include "exec/scan_ops.h"

#include "common/macros.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "storage/serde.h"

namespace wsq {

Status SeqScanOperator::OpenImpl() {
  // std::optional::emplace — constructs one scanner, grows nothing.
  // wsqcheck: allow(unbounded-op-growth)
  scanner_.emplace(node_->table());
  return Status::OK();
}

Result<bool> SeqScanOperator::NextImpl(Row* row) {
  WSQ_RETURN_IF_ERROR(CheckAlive());
  return scanner_->Next(row);
}

Status SeqScanOperator::CloseImpl() {
  scanner_.reset();
  return Status::OK();
}

Status IndexScanOperator::OpenImpl() {
  next_ = 0;
  const BPlusTree* tree = node_->index()->tree();
  if (node_->IsEquality()) {
    WSQ_ASSIGN_OR_RETURN(rids_, tree->SearchEqual(*node_->lo().value));
  } else {
    const Value* lo = node_->lo().value.has_value()
                          ? &*node_->lo().value
                          : nullptr;
    const Value* hi = node_->hi().value.has_value()
                          ? &*node_->hi().value
                          : nullptr;
    WSQ_ASSIGN_OR_RETURN(
        rids_, tree->SearchRange(lo, node_->lo().inclusive, hi,
                                 node_->hi().inclusive));
  }
  return Status::OK();
}

Result<bool> IndexScanOperator::NextImpl(Row* row) {
  if (next_ >= rids_.size()) return false;
  WSQ_ASSIGN_OR_RETURN(std::string bytes,
                       node_->table()->heap()->Get(rids_[next_++]));
  WSQ_ASSIGN_OR_RETURN(*row, DeserializeRow(bytes));
  return true;
}

Status IndexScanOperator::CloseImpl() {
  rids_.clear();
  return Status::OK();
}

namespace {

Result<std::string> TermToString(const Value& v) {
  switch (v.type()) {
    case TypeId::kString:
      return v.AsString();
    case TypeId::kInt64:
      return std::to_string(v.AsInt());
    case TypeId::kDouble:
      return StrFormat("%g", v.AsDouble());
    case TypeId::kNull:
      return Status::ExecutionError(
          "NULL cannot be used as a virtual table search term");
    case TypeId::kPlaceholder:
      return Status::ExecutionError(
          "incomplete (placeholder) value used as a search term — "
          "dependent join on a pending external result");
  }
  return Status::Internal("unknown value type");
}

}  // namespace

Result<VTableRequest> VScanBase::BuildRequest() const {
  VTableRequest request;
  request.search_exp = node_->search_exp;
  request.rank_limit = node_->rank_limit;
  request.shard = ctx_->shard;
  request.terms.resize(node_->num_terms());

  std::vector<bool> filled(node_->num_terms(), false);
  for (const auto& [term, value] : node_->constant_terms) {
    WSQ_ASSIGN_OR_RETURN(request.terms[term - 1], TermToString(value));
    filled[term - 1] = true;
  }
  for (const auto& [term, value] : bound_terms_) {
    if (term == 0 || term > node_->num_terms()) {
      return Status::Internal(
          StrFormat("binding for T%zu out of range", term));
    }
    WSQ_ASSIGN_OR_RETURN(request.terms[term - 1], TermToString(value));
    filled[term - 1] = true;
  }
  for (size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) {
      return Status::ExecutionError(
          StrFormat("T%zu of %s is unbound at scan time", i + 1,
                    node_->effective_name().c_str()));
    }
  }
  return request;
}

Result<CallId> VScanBase::IssueCall(Row* inputs) {
  WSQ_RETURN_IF_ERROR(CheckAlive());
  WSQ_ASSIGN_OR_RETURN(VTableRequest request, BuildRequest());
  std::vector<Value> values;
  values.reserve(1 + request.terms.size());
  values.push_back(
      Value::Str(node_->table()->EffectiveSearchExp(request)));
  for (const std::string& t : request.terms) {
    values.push_back(Value::Str(t));
  }
  *inputs = Row(std::move(values));
  // Deadline propagation: never issue a call that is allowed to run
  // longer than the query has left. A dependent join re-Opens this scan
  // per left row, so each call is clamped to the budget remaining at
  // its own Register time.
  int64_t budget = 0;
  if (cancel_token() != nullptr && cancel_token()->HasDeadline()) {
    budget = cancel_token()->RemainingMicros();
    if (budget <= 0) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    int64_t pump_default = ctx_->pump->limits().default_timeout_micros;
    if (pump_default > 0 && pump_default < budget) budget = pump_default;
  }
  CallId call = node_->table()->SubmitAsync(request, ctx_->pump, budget);
  // One id per issued call (a dependent join re-Opens this scan per
  // outer row), charged to the query budget until an EVScan takes the
  // result or ExecutePlan's sweep after the root closes.
  ctx_->issued_calls.push_back(call);
  ctx_->issued_calls_charge.ForceAdd(sizeof(CallId));
  ++ctx_->stats.external_calls;
  CountCallIssued();
  if (tracer() != nullptr) {
    tracer()->Event("reqpump", "register",
                    StrFormat("call=%llu %s", (unsigned long long)call,
                              node_->effective_name().c_str()));
  }
  return call;
}

Status EVScanOperator::OpenImpl() {
  outputs_.clear();
  next_ = 0;
  WSQ_ASSIGN_OR_RETURN(CallId call, IssueCall(&inputs_));
  CallResult result;
  if (tracer() != nullptr) {
    // The wait is the whole cost of a sequential EVScan; one span per
    // call makes sum-of-latencies visible in the trace.
    Tracer::Scope span(tracer(), "net", "fetch");
    span.AppendDetail(node_->effective_name());
    result = ctx_->pump->TakeBlocking(call, cancel_token());
  } else {
    result = ctx_->pump->TakeBlocking(call, cancel_token());
  }
  // A stopped query leaves its call to ExecutePlan's sweep. Otherwise
  // TakeBlocking consumed the call, the last one IssueCall pushed, so
  // the sweep has nothing to resolve for it; a failure is the call's.
  if (!result.status.ok()) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
  }
  ctx_->issued_calls.pop_back();
  ctx_->issued_calls_charge.Subtract(sizeof(CallId));
  CountCallResult(&ctx_->stats, "net", call, result);
  if (!result.status.ok()) {
    ++ctx_->stats.failed_calls;
    return result.status;
  }
  outputs_ = std::move(result.rows);
  return Status::OK();
}

Result<bool> EVScanOperator::NextImpl(Row* row) {
  if (next_ >= outputs_.size()) return false;
  *row = Row::Concat(inputs_, outputs_[next_++]);
  return true;
}

Status EVScanOperator::CloseImpl() {
  outputs_.clear();
  return Status::OK();
}

Status AEVScanOperator::OpenImpl() {
  emitted_ = false;
  WSQ_ASSIGN_OR_RETURN(call_, IssueCall(&inputs_));
  return Status::OK();
}

Result<bool> AEVScanOperator::NextImpl(Row* row) {
  if (emitted_) return false;
  emitted_ = true;
  Row out = inputs_;
  size_t outputs = node_->table()->NumOutputColumns();
  for (size_t field = 0; field < outputs; ++field) {
    out.Append(Value::Pending(call_, static_cast<int32_t>(field)));
  }
  *row = std::move(out);
  return true;
}

Status AEVScanOperator::CloseImpl() { return Status::OK(); }

}  // namespace wsq
