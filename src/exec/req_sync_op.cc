#include "exec/req_sync_op.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"

namespace wsq {

void ReqSyncOperator::BlockedWait(uint64_t seq) {
  if (!profiling() && tracer() == nullptr) {
    pump_->WaitForCompletionBeyond(seq, cancel_token());
    return;
  }
  int64_t start = NowMicros();
  if (tracer() != nullptr) {
    Tracer::Scope span(tracer(), "reqsync", "wait");
    pump_->WaitForCompletionBeyond(seq, cancel_token());
  } else {
    pump_->WaitForCompletionBeyond(seq, cancel_token());
  }
  AddBlockedMicros(NowMicros() - start);
}

void ReqSyncOperator::AddEntry(Row row, std::set<CallId> pending) {
  uint64_t id = next_entry_id_++;
  for (CallId c : pending) {
    waiters_[c].push_back(id);
  }
  size_t bytes = row.ApproxBytes();
  buffered_bytes_ += bytes;
  // ForceAdd, not TryAdd: the tuple already exists and must be indexed
  // for its calls' completions. Admission control is WaitForRoom, which
  // watches the budget.
  mem_.ForceAdd(bytes);
  entries_.emplace(id, Entry{std::move(row), std::move(pending), bytes});
  if (tracer() != nullptr) {
    tracer()->Event("reqsync", "buffer",
                    StrFormat("pending=%zu buffered_rows=%zu",
                              entries_.at(id).pending.size(),
                              entries_.size()));
  }
  QueryStats& stats = ctx_->stats;
  stats.peak_buffered_rows =
      std::max<uint64_t>(stats.peak_buffered_rows, entries_.size());
  stats.peak_buffered_bytes =
      std::max<uint64_t>(stats.peak_buffered_bytes, buffered_bytes_);
}

bool ReqSyncOperator::HasRoom() const {
  // When the query budget has no headroom, stop pulling from the child
  // while anything is buffered — in-flight completions drain the buffer
  // and release its charge. With nothing buffered the next tuple must
  // be admitted regardless (ForceAdd) or the query could never make
  // progress.
  return mem_.budget() == nullptr || entries_.empty() ||
         mem_.budget()->Available() > 0;
}

Status ReqSyncOperator::WaitForRoom() {
  while (!HasRoom()) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    // Snapshot before polling so a completion landing mid-poll makes
    // the wait below return immediately (same pattern as Next).
    uint64_t seq = pump_->completion_seq();
    WSQ_ASSIGN_OR_RETURN(bool progressed, PollCompletions());
    if (progressed) continue;
    if (!HasRoom()) {
      BlockedWait(seq);
    }
  }
  return Status::OK();
}

void ReqSyncOperator::Absorb(Row row) {
  std::vector<CallId> pending = row.PendingCalls();
  if (pending.empty()) {
    ready_.push_back(std::move(row));
  } else {
    AddEntry(std::move(row),
             std::set<CallId>(pending.begin(), pending.end()));
  }
}

Status ReqSyncOperator::OpenImpl() {
  entries_.clear();
  waiters_.clear();
  ready_.clear();
  next_entry_id_ = 1;
  buffered_bytes_ = 0;
  mem_.ReleaseAll();
  mem_.Bind(ctx_->memory);
  child_drained_ = false;

  WSQ_RETURN_IF_ERROR(child_->Open());
  if (node_->streaming) {
    // Streaming mode: the child is drained lazily from Next(), so the
    // first completed tuples can flow before every call is issued.
    return Status::OK();
  }
  // Full-buffering implementation, as in the paper: drain the child
  // entirely. Draining is what launches all the asynchronous calls
  // below us — the dependent joins keep producing provisional tuples
  // without waiting for any search to finish. The query memory budget
  // throttles the drain: WaitForRoom blocks on in-flight completions
  // instead of buffering without bound.
  Row row;
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_RETURN_IF_ERROR(WaitForRoom());
    WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
    if (!more) break;
    Absorb(std::move(row));
  }
  child_drained_ = true;
  return Status::OK();
}

Result<Row> ReqSyncOperator::PatchRow(const Row& row, CallId call,
                                      const Row& values) {
  Row out;
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row.value(i);
    if (v.is_placeholder() && v.AsPlaceholder().call == call) {
      int32_t field = v.AsPlaceholder().field;
      if (field < 0 || static_cast<size_t>(field) >= values.size()) {
        return Status::Internal(StrFormat(
            "call result has %zu fields, placeholder wants field %d",
            values.size(), field));
      }
      out.Append(values.value(static_cast<size_t>(field)));
    } else {
      out.Append(v);
    }
  }
  return out;
}

Status ReqSyncOperator::DegradeFailedCall(CallId call,
                                          const Status& error) {
  ++ctx_->stats.failed_calls;

  // Un-register the call first in every policy: its result has already
  // been consumed, so Close has nothing left to cancel or take for it.
  std::vector<uint64_t> ids;
  auto waiting = waiters_.find(call);
  if (waiting != waiters_.end()) {
    ids = std::move(waiting->second);
    waiters_.erase(waiting);
  }
  if (node_->on_call_error == OnCallError::kFailQuery) return error;

  for (uint64_t id : ids) {
    auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // stale (see ProcessCompletion)

    if (node_->on_call_error == OnCallError::kDropTuple) {
      // Cancel the tuple exactly as a zero-row result would (§4.3
      // n = 0); its references under OTHER calls go stale and are
      // skipped there.
      buffered_bytes_ -= it->second.bytes;
      mem_.Subtract(it->second.bytes);
      entries_.erase(it);
      ++ctx_->stats.dropped_tuples;
      continue;
    }

    // kNullPad: fill the columns this call would have produced with
    // NULL and keep the tuple moving.
    Entry entry = std::move(it->second);
    buffered_bytes_ -= entry.bytes;
    mem_.Subtract(entry.bytes);
    entries_.erase(it);
    entry.pending.erase(call);
    Row padded;
    for (size_t i = 0; i < entry.row.size(); ++i) {
      const Value& v = entry.row.value(i);
      if (v.is_placeholder() && v.AsPlaceholder().call == call) {
        padded.Append(Value::Null());
      } else {
        padded.Append(v);
      }
    }
    ++ctx_->stats.null_padded_tuples;
    if (entry.pending.empty()) {
      ready_.push_back(std::move(padded));
    } else {
      AddEntry(std::move(padded), entry.pending);
    }
  }
  return Status::OK();
}

Status ReqSyncOperator::ProcessCompletion(CallId call,
                                          const CallResult& result) {
  if (tracer() != nullptr) {
    // Recorded on the query thread from the timing the pump attached to
    // the result, so the cross-thread call is visible in the trace.
    tracer()->Event(
        "reqsync", result.status.ok() ? "complete" : "failed",
        StrFormat("call=%llu rows=%zu queue_wait=%lld us in_flight=%lld us",
                  (unsigned long long)call, result.rows.size(),
                  (long long)result.queue_wait_micros,
                  (long long)result.in_flight_micros));
    if (result.status.ok() && result.rows.size() > 1) {
      tracer()->Event("reqsync", "proliferate",
                      StrFormat("call=%llu copies=%zu",
                                (unsigned long long)call,
                                result.rows.size()));
    }
  }
  CountCallResult(&ctx_->stats, "reqsync", call, result);
  if (!result.status.ok()) {
    return DegradeFailedCall(call, result.status);
  }
  // An OK answer, partial or not, patches its tuples normally.

  auto waiting = waiters_.find(call);
  if (waiting == waiters_.end()) return Status::OK();
  std::vector<uint64_t> ids = std::move(waiting->second);
  waiters_.erase(waiting);

  for (uint64_t id : ids) {
    auto it = entries_.find(id);
    // Stale reference: the tuple was proliferated (and re-registered
    // under new ids) or cancelled by another call's completion.
    if (it == entries_.end()) continue;
    Entry entry = std::move(it->second);
    buffered_bytes_ -= entry.bytes;
    mem_.Subtract(entry.bytes);
    entries_.erase(it);
    entry.pending.erase(call);

    // n = 0 → cancellation; n = 1 → completion; n > 1 → proliferation
    // (paper §4.3). Copies keep placeholders for other pending calls.
    for (const Row& values : result.rows) {
      WSQ_ASSIGN_OR_RETURN(Row patched,
                           PatchRow(entry.row, call, values));
      if (entry.pending.empty()) {
        ready_.push_back(std::move(patched));
      } else {
        AddEntry(std::move(patched), entry.pending);
      }
    }
  }
  return Status::OK();
}

Status ReqSyncOperator::CloseImpl() {
  // Nothing will consume the calls still in waiters_: their tuples were
  // cancelled by another call's zero-row answer, the consumer stopped
  // early (LIMIT), or the query failed or was aborted. Sorted by id,
  // so CancelAndTake cancels the newest first.
  std::vector<CallId> calls;
  calls.reserve(waiters_.size());
  for (const auto& [call, ids] : waiters_) calls.push_back(call);
  std::sort(calls.begin(), calls.end());
  ctx_->stats.cancelled_calls += pump_->CancelAndTake(calls);
  waiters_.clear();
  entries_.clear();
  ready_.clear();
  buffered_bytes_ = 0;
  RecordPeakBytes(mem_.peak_bytes());
  mem_.ReleaseAll();
  return child_->Close();
}

Result<bool> ReqSyncOperator::PollCompletions() {
  bool progressed = false;
  std::vector<CallId> calls;
  calls.reserve(waiters_.size());
  for (const auto& [call, ids] : waiters_) calls.push_back(call);
  for (CallId call : calls) {
    CallResult result;
    if (pump_->TryTake(call, &result)) {
      WSQ_RETURN_IF_ERROR(ProcessCompletion(call, result));
      progressed = true;
    }
  }
  return progressed;
}

Result<bool> ReqSyncOperator::NextImpl(Row* row) {
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    if (!ready_.empty()) {
      *row = std::move(ready_.front());
      ready_.pop_front();
      return true;
    }

    if (!child_drained_) {
      // Streaming mode: pull the next child tuple (which launches its
      // calls) and absorb any completions that have already landed.
      // The query memory budget throttles the pull exactly as in Open.
      WSQ_RETURN_IF_ERROR(WaitForRoom());
      Row input;
      WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(&input));
      if (more) {
        Absorb(std::move(input));
      } else {
        child_drained_ = true;
      }
      WSQ_RETURN_IF_ERROR(PollCompletions().status());
      continue;
    }

    if (entries_.empty()) return false;

    // Snapshot the completion sequence BEFORE scanning so a completion
    // that lands mid-scan is not missed (it would bump the sequence and
    // make the wait below return immediately).
    uint64_t seq = pump_->completion_seq();
    WSQ_ASSIGN_OR_RETURN(bool progressed, PollCompletions());
    if (!progressed && ready_.empty() && !entries_.empty()) {
      BlockedWait(seq);
    }
  }
}

}  // namespace wsq
