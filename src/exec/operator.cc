#include "exec/operator.h"

#include <algorithm>

#include "async/req_pump.h"
#include "common/strings.h"

namespace wsq {

Status Operator::OpenInstrumented() {
  int64_t start = NowMicros();
  Status status;
  if (tracer_ != nullptr) {
    Tracer::Scope span(tracer_, "op", label_.empty() ? "open" : label_);
    span.AppendDetail("open");
    status = OpenImpl();
    if (!status.ok()) span.AppendDetail(StatusCodeToString(status.code()));
  } else {
    status = OpenImpl();
  }
  if (profile_on_) {
    profile_.opens++;
    profile_.open_micros += NowMicros() - start;
  }
  return status;
}

Status Operator::CloseInstrumented() {
  int64_t start = NowMicros();
  Status status;
  if (tracer_ != nullptr) {
    Tracer::Scope span(tracer_, "op", label_.empty() ? "close" : label_);
    span.AppendDetail("close");
    status = CloseImpl();
  } else {
    status = CloseImpl();
  }
  if (profile_on_) {
    profile_.close_micros += NowMicros() - start;
  }
  return status;
}

void Operator::CountCallResult(QueryStats* stats, const char* layer,
                               CallId call, const CallResult& result) {
  if (result.hedged) ++stats->hedged_calls;
  if (result.hedge_won) ++stats->hedge_wins;
  if (!result.status.ok() || result.degraded_shards == 0) return;
  const uint32_t degraded_shards = result.degraded_shards;
  profile_.partial_results++;
  profile_.degraded_shards += degraded_shards;
  ++stats->partial_results;
  stats->degraded_shards += degraded_shards;
  if (tracer_ != nullptr) {
    tracer_->Event(layer, "partial",
                   StrFormat("call=%llu degraded_shards=%u",
                             (unsigned long long)call, degraded_shards));
  }
}

PlanProfileNode Operator::BuildProfileTree() const {
  PlanProfileNode node;
  node.label = label_.empty() ? "Operator" : label_;
  node.profile = profile_;
  int64_t children_total = 0;
  for (const Operator* child : children_) {
    node.children.push_back(child->BuildProfileTree());
    children_total += child->profile().total_micros();
  }
  node.self_micros =
      std::max<int64_t>(0, profile_.total_micros() - children_total);
  return node;
}

}  // namespace wsq
