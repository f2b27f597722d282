#include "async/req_pump.h"

#include <algorithm>
#include <cassert>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace wsq {

namespace {

/// Records one resolved call's timings into the registry histograms.
/// Callers must NOT hold Core::mu: the registry lock order is
/// registry → component, so touching the registry under the pump lock
/// could deadlock against the pump's own collector.
/// `query_id` feeds the latency exemplars: completions land on pump or
/// service threads, so the thread-bound id is not available here.
void RecordCallTiming(const std::string& destination,
                      int64_t queue_wait_micros, int64_t in_flight_micros,
                      uint64_t query_id) {
  MetricsRegistry* registry = MetricsRegistry::Global();
  Histogram* latency = registry->GetHistogram(
      "wsq_external_call_latency_micros",
      "Dispatch-to-completion latency of external calls",
      {{"destination", destination}});
  if (latency != nullptr) {
    latency->RecordWithExemplar(in_flight_micros, query_id);
  }
  static Histogram* queue_wait = registry->GetHistogram(
      "wsq_reqpump_queue_wait_micros",
      "Time external calls waited for a ReqPump limit slot");
  if (queue_wait != nullptr) queue_wait->Record(queue_wait_micros);
}

}  // namespace

ReqPump::ReqPump(Limits limits)
    : core_(std::make_shared<Core>(limits)),
      timer_([core = core_] { TimerLoop(std::move(core)); }) {
  // Publish the pump's stats ledger (kept authoritative in Core::stats)
  // via a collector; several pumps merge into process-wide series.
  collector_id_ = MetricsRegistry::Global()->AddCollector(
      [core = core_](MetricsEmitter* emitter) {
        ReqPumpStats s;
        int in_flight;
        size_t queued;
        size_t pending;
        {
          MutexLock lock(&core->mu);
          s = core->stats;
          in_flight = core->in_flight_global;
          queued = core->queue.size();
          pending = core->results.size();
        }
        emitter->EmitCounter("wsq_reqpump_calls_registered_total",
                             "External calls registered", {}, s.registered);
        emitter->EmitCounter("wsq_reqpump_calls_dispatched_total",
                             "External calls handed to their dispatch fn",
                             {}, s.dispatched);
        emitter->EmitCounter("wsq_reqpump_calls_completed_total",
                             "External calls completed (incl. failures)",
                             {}, s.completed);
        emitter->EmitCounter("wsq_reqpump_calls_failed_total",
                             "External calls completed non-OK", {},
                             s.failed);
        emitter->EmitCounter("wsq_reqpump_calls_timed_out_total",
                             "External calls expired by the deadline timer",
                             {}, s.timed_out);
        emitter->EmitCounter("wsq_reqpump_calls_cancelled_total",
                             "External calls resolved kCancelled", {},
                             s.cancelled);
        emitter->EmitCounter("wsq_reqpump_calls_shed_total",
                             "External calls shed at Register (queue full)",
                             {}, s.shed);
        emitter->EmitCounter(
            "wsq_reqpump_late_completions_discarded_total",
            "Real completions discarded after timeout/cancel", {},
            s.late_discarded);
        emitter->EmitGauge("wsq_reqpump_in_flight",
                           "Currently dispatched external calls", {},
                           in_flight);
        emitter->EmitGauge("wsq_reqpump_queued",
                           "External calls waiting for a limit slot", {},
                           static_cast<int64_t>(queued));
        emitter->EmitGauge("wsq_reqpump_pending_results",
                           "Completed results not yet taken (ReqPumpHash)",
                           {}, static_cast<int64_t>(pending));
        emitter->EmitGauge("wsq_reqpump_max_in_flight",
                           "Peak concurrently dispatched calls", {},
                           static_cast<int64_t>(s.max_in_flight));
        emitter->EmitGauge("wsq_reqpump_queued_peak",
                           "Peak wait-queue length", {},
                           static_cast<int64_t>(s.queued_peak));
      });
}

ReqPump::~ReqPump() {
  // Unhook the collector before tearing anything down: after this, no
  // export can observe a half-destroyed pump.
  MetricsRegistry::Global()->RemoveCollector(collector_id_);
  {
    MutexLock lock(&core_->mu);
    // Drop never-dispatched queued calls, then wait for in-flight ones.
    // Abandoned (timed-out) calls already released their slots and do
    // not delay shutdown; their stragglers hit the shared core later.
    for (const QueuedCall& q : core_->queue) {
      core_->results[q.id] =
          CallResult{Status::Cancelled("ReqPump shut down"), {}};
      core_->unresolved.erase(q.id);
      ++core_->stats.cancelled;
      --core_->outstanding;
    }
    core_->queue.clear();
    while (core_->in_flight_global != 0) core_->cv.Wait(core_->mu);
    core_->shutdown = true;
  }
  core_->cv.NotifyAll();
  timer_.join();
}

bool ReqPump::CanDispatchLocked(const Core& core,
                                const std::string& destination) {
  if (core.limits.max_global > 0 &&
      core.in_flight_global >= core.limits.max_global) {
    return false;
  }
  if (core.limits.max_per_destination > 0) {
    auto it = core.in_flight_by_dest.find(destination);
    if (it != core.in_flight_by_dest.end() &&
        it->second >= core.limits.max_per_destination) {
      return false;
    }
  }
  return true;
}

CallId ReqPump::Register(const std::string& destination, AsyncCallFn fn) {
  return Register(destination, std::move(fn),
                  core_->limits.default_timeout_micros);
}

CallId ReqPump::Register(const std::string& destination, AsyncCallFn fn,
                         int64_t timeout_micros, PumpCallback on_result) {
  CallId id;
  bool dispatch_now;
  bool has_deadline = timeout_micros > 0;
  bool earliest_deadline = false;
  const uint64_t query_id = CurrentQueryId();
  size_t queue_depth = 0;
  {
    MutexLock lock(&core_->mu);
    id = core_->next_id++;
    ++core_->stats.registered;
    dispatch_now = CanDispatchLocked(*core_, destination);
    if (!dispatch_now && core_->limits.max_queued > 0 &&
        static_cast<int>(core_->queue.size()) >=
            core_->limits.max_queued) {
      // Overload shedding: the wait queue is full, so this call is
      // resolved immediately instead of queued. Consumers see a normal
      // (failed) completion; nothing was dispatched, so no slot or
      // straggler accounting applies.
      ++core_->stats.shed;
      core_->results[id] = CallResult{
          Status::ResourceExhausted("ReqPump queue for '" + destination +
                                    "' is full (max_queued)"),
          {}};
      if (on_result) core_->notifications.push_back(std::move(on_result));
      ++core_->completion_seq;
      core_->cv.NotifyAll();
      FlightRecorder::Global()->Record(FrEventType::kCallShed, destination,
                                       "queue_full", query_id,
                                       static_cast<int64_t>(id));
      return id;
    }
    ++core_->outstanding;
    int64_t now = NowMicros();
    core_->unresolved.emplace(id, CallMeta{destination, now,
                                           dispatch_now ? now : 0, query_id,
                                           std::move(on_result)});
    int64_t deadline = has_deadline ? now + timeout_micros : 0;
    if (has_deadline) {
      core_->deadlines.push(Deadline{deadline, id, destination, nullptr});
      earliest_deadline = core_->deadlines.top().when_micros == deadline;
    }
    if (dispatch_now) {
      ++core_->stats.dispatched;
      ++core_->in_flight_global;
      ++core_->in_flight_by_dest[destination];
      core_->stats.max_in_flight =
          std::max(core_->stats.max_in_flight,
                   static_cast<uint64_t>(core_->in_flight_global));
    } else {
      core_->queue.push_back(
          QueuedCall{id, destination, std::move(fn), deadline, query_id});
      core_->stats.queued_peak =
          std::max(core_->stats.queued_peak,
                   static_cast<uint64_t>(core_->queue.size()));
      queue_depth = core_->queue.size();
    }
  }
  FlightRecorder::Global()->Record(FrEventType::kCallRegister, destination,
                                   dispatch_now ? "" : "queued", query_id,
                                   static_cast<int64_t>(id),
                                   static_cast<int64_t>(queue_depth));
  // Wake the timer only if it must re-arm for an earlier deadline.
  if (earliest_deadline) core_->cv.NotifyAll();
  if (dispatch_now) {
    Dispatch(core_, id, destination, std::move(fn), query_id);
  }
  return id;
}

void ReqPump::Dispatch(const std::shared_ptr<Core>& core, CallId id,
                       const std::string& destination, AsyncCallFn fn,
                       uint64_t query_id) {
  FlightRecorder::Global()->Record(FrEventType::kCallDispatch, destination,
                                   "", query_id, static_cast<int64_t>(id));
  // The completion may fire synchronously (e.g. a cache hit) or from a
  // service thread later; both paths go through OnComplete. The lambda
  // keeps the core alive so even a completion arriving after ~ReqPump
  // is safe.
  fn([core, id, destination](CallResult result) {
    OnComplete(core, id, destination, std::move(result));
  });
}

void ReqPump::OnComplete(const std::shared_ptr<Core>& core, CallId id,
                         const std::string& destination,
                         CallResult result) {
  std::vector<QueuedCall> to_dispatch;
  int64_t queue_wait_micros = 0;
  int64_t in_flight_micros = 0;
  bool record_timing = false;
  bool failed = false;
  std::string failure_code;
  uint64_t query_id = 0;
  {
    MutexLock lock(&core->mu);
    if (core->abandoned.erase(id) > 0) {
      // The deadline timer already completed this call and released its
      // slots; the real result arrives too late and is discarded.
      ++core->stats.late_discarded;
      lock.Unlock();
      FlightRecorder::Global()->Record(FrEventType::kCallLateDiscard,
                                       destination, "", /*query_id=*/0,
                                       static_cast<int64_t>(id));
      return;
    }
    auto meta = core->unresolved.find(id);
    if (meta != core->unresolved.end()) {
      query_id = meta->second.query_id;
      if (meta->second.on_result) {
        core->notifications.push_back(std::move(meta->second.on_result));
      }
      if (meta->second.dispatched_micros > 0) {
        queue_wait_micros =
            meta->second.dispatched_micros - meta->second.registered_micros;
        in_flight_micros = NowMicros() - meta->second.dispatched_micros;
        core->stats.queue_wait_micros_total += queue_wait_micros;
        core->stats.in_flight_micros_total += in_flight_micros;
        record_timing = true;
      }
    }
    if (!result.status.ok()) {
      ++core->stats.failed;
      failed = true;
      failure_code = StatusCodeToString(result.status.code());
    }
    ++core->stats.completed;
    result.queue_wait_micros = queue_wait_micros;
    result.in_flight_micros = in_flight_micros;
    core->results[id] = std::move(result);
    core->unresolved.erase(id);
    --core->in_flight_global;
    --core->in_flight_by_dest[destination];
    ++core->completion_seq;
    --core->outstanding;
    to_dispatch = TakeDispatchableLocked(core.get());
  }
  core->cv.NotifyAll();
  // Outside the lock (see RecordCallTiming).
  FlightRecorder::Global()->Record(
      failed ? FrEventType::kCallFailed : FrEventType::kCallComplete,
      destination, failure_code, query_id, static_cast<int64_t>(id),
      in_flight_micros);
  if (record_timing) {
    RecordCallTiming(destination, queue_wait_micros, in_flight_micros,
                     query_id);
  }
  for (QueuedCall& q : to_dispatch) {
    Dispatch(core, q.id, q.destination, std::move(q.fn), q.query_id);
  }
}

std::vector<ReqPump::QueuedCall> ReqPump::TakeDispatchableLocked(
    Core* core) {
  std::vector<QueuedCall> out;
  if (core->shutdown) return out;
  // FIFO per scan; a blocked head does not starve other destinations.
  for (auto it = core->queue.begin(); it != core->queue.end();) {
    // Account for calls already chosen in this scan.
    int pending_global = static_cast<int>(out.size());
    if (core->limits.max_global > 0 &&
        core->in_flight_global + pending_global >=
            core->limits.max_global) {
      break;
    }
    int pending_dest = 0;
    for (const QueuedCall& q : out) {
      if (q.destination == it->destination) ++pending_dest;
    }
    bool dest_ok = true;
    if (core->limits.max_per_destination > 0) {
      auto found = core->in_flight_by_dest.find(it->destination);
      int current =
          found == core->in_flight_by_dest.end() ? 0 : found->second;
      dest_ok = current + pending_dest < core->limits.max_per_destination;
    }
    if (dest_ok) {
      out.push_back(std::move(*it));
      it = core->queue.erase(it);
    } else {
      ++it;
    }
  }
  int64_t now = out.empty() ? 0 : NowMicros();
  for (const QueuedCall& q : out) {
    ++core->stats.dispatched;
    ++core->in_flight_global;
    ++core->in_flight_by_dest[q.destination];
    auto meta = core->unresolved.find(q.id);
    if (meta != core->unresolved.end()) {
      meta->second.dispatched_micros = now;
    }
  }
  core->stats.max_in_flight =
      std::max(core->stats.max_in_flight,
               static_cast<uint64_t>(core->in_flight_global));
  return out;
}

void ReqPump::TimerLoop(std::shared_ptr<Core> core) {
  MutexLock lock(&core->mu);
  for (;;) {
    // Registrants' callbacks run outside the lock. Notifications still
    // queued at shutdown run (their calls resolved); timers do not.
    if (!core->notifications.empty()) {
      std::vector<PumpCallback> ready;
      ready.swap(core->notifications);
      lock.Unlock();
      for (PumpCallback& fn : ready) fn();
      ready.clear();  // release captures outside the lock
      lock.Lock();
      continue;
    }
    if (core->shutdown) break;
    // Drop stale heap entries (calls that resolved before their
    // deadline) so they don't force pointless wakeups.
    while (!core->deadlines.empty() && !core->deadlines.top().timer &&
           core->unresolved.count(core->deadlines.top().id) == 0) {
      core->deadlines.pop();
    }
    if (core->deadlines.empty()) {
      core->cv.Wait(core->mu);
      continue;
    }
    int64_t now = NowMicros();
    int64_t when = core->deadlines.top().when_micros;
    if (now < when) {
      core->cv.WaitForMicros(core->mu, when - now);
      continue;
    }
    Deadline d = core->deadlines.top();
    core->deadlines.pop();
    if (d.timer) {
      lock.Unlock();
      d.timer();
      lock.Lock();
      continue;
    }
    auto meta = core->unresolved.find(d.id);
    if (meta == core->unresolved.end()) continue;

    // Time the call out: complete it with kDeadlineExceeded so blocked
    // consumers wake immediately.
    ++core->stats.timed_out;
    ++core->stats.failed;
    ++core->stats.completed;
    const uint64_t query_id = meta->second.query_id;
    if (meta->second.on_result) {
      core->notifications.push_back(std::move(meta->second.on_result));
    }
    std::vector<QueuedCall> to_dispatch;
    const bool was_queued = ResolveEarlyLocked(
        core.get(), meta,
        CallResult{Status::DeadlineExceeded("external call to '" +
                                            d.destination +
                                            "' exceeded its deadline"),
                   {}},
        &to_dispatch);
    const int64_t in_flight_micros = core->results[d.id].in_flight_micros;
    lock.Unlock();
    FlightRecorder::Global()->Record(
        FrEventType::kCallTimeout, d.destination,
        was_queued ? "expired_in_queue" : "abandoned", query_id,
        static_cast<int64_t>(d.id), in_flight_micros);
    core->cv.NotifyAll();
    for (QueuedCall& q : to_dispatch) {
      Dispatch(core, q.id, q.destination, std::move(q.fn), q.query_id);
    }
    lock.Lock();
  }
}

void ReqPump::RunAfter(int64_t delay_micros, PumpCallback fn) {
  const int64_t when = NowMicros() + delay_micros;
  bool earliest;
  {
    MutexLock lock(&core_->mu);
    core_->deadlines.push(Deadline{when, kInvalidCallId, "", std::move(fn)});
    earliest = core_->deadlines.top().when_micros == when;
  }
  if (earliest) core_->cv.NotifyAll();  // the timer must re-arm earlier
}

bool ReqPump::ResolveEarlyLocked(
    Core* core, std::unordered_map<CallId, CallMeta>::iterator meta,
    CallResult result, std::vector<QueuedCall>* to_dispatch) {
  const CallId id = meta->first;
  const CallMeta& call = meta->second;
  if (call.dispatched_micros > 0) {
    result.queue_wait_micros = call.dispatched_micros - call.registered_micros;
    result.in_flight_micros = NowMicros() - call.dispatched_micros;
    core->stats.queue_wait_micros_total += result.queue_wait_micros;
    core->stats.in_flight_micros_total += result.in_flight_micros;
  }
  core->results[id] = std::move(result);
  ++core->completion_seq;
  --core->outstanding;
  auto queued = std::find_if(core->queue.begin(), core->queue.end(),
                             [id](const QueuedCall& q) { return q.id == id; });
  const bool was_queued = queued != core->queue.end();
  if (was_queued) {
    core->queue.erase(queued);  // never dispatched: no straggler coming
  } else {
    // Dispatched: abandon it and free its limit slots now, so the queue
    // behind a hung destination keeps moving; its real completion, if
    // one ever arrives, is discarded.
    core->abandoned.insert(id);
    --core->in_flight_global;
    --core->in_flight_by_dest[call.destination];
    *to_dispatch = TakeDispatchableLocked(core);
  }
  core->unresolved.erase(meta);
  return was_queued;
}

bool ReqPump::CancelCall(CallId id) {
  std::vector<QueuedCall> to_dispatch;
  std::string destination;
  uint64_t query_id = 0;
  {
    MutexLock lock(&core_->mu);
    auto meta = core_->unresolved.find(id);
    if (meta == core_->unresolved.end()) return false;
    destination = meta->second.destination;
    query_id = meta->second.query_id;
    ++core_->stats.cancelled;
    ResolveEarlyLocked(
        core_.get(), meta,
        CallResult{Status::Cancelled("external call cancelled"), {}},
        &to_dispatch);
  }
  FlightRecorder::Global()->Record(FrEventType::kCallCancel, destination, "",
                                   query_id, static_cast<int64_t>(id));
  core_->cv.NotifyAll();
  for (QueuedCall& q : to_dispatch) {
    Dispatch(core_, q.id, q.destination, std::move(q.fn), q.query_id);
  }
  return true;
}

bool ReqPump::IsComplete(CallId id) const {
  MutexLock lock(&core_->mu);
  return core_->results.count(id) > 0;
}

bool ReqPump::TryTake(CallId id, CallResult* out) {
  MutexLock lock(&core_->mu);
  auto it = core_->results.find(id);
  if (it == core_->results.end()) return false;
  *out = std::move(it->second);
  core_->results.erase(it);
  return true;
}

namespace {

/// How long a token-observing wait sleeps between token checks. The
/// token has no notification hook (see common/cancellation.h), so a
/// cross-thread Cancel() is noticed within one quantum — small enough
/// for prompt aborts, large enough that idle waiting stays cheap.
constexpr int64_t kCancelPollMicros = 5000;

}  // namespace

CallResult ReqPump::TakeBlocking(CallId id,
                                 const CancellationToken* token) {
  // Hold the core alive locally: a consumer woken by shutdown must be
  // able to finish this function even if ~ReqPump completes (and the
  // ReqPump object is freed) the moment it releases the lock.
  std::shared_ptr<Core> core = core_;
  MutexLock lock(&core->mu);
  while (true) {
    auto it = core->results.find(id);
    if (it != core->results.end()) {
      CallResult out = std::move(it->second);
      core->results.erase(it);
      return out;
    }
    // No result and no longer pending: the call is unknown or was
    // already taken — it will never complete, so waiting would hang.
    if (core->unresolved.count(id) == 0) {
      return CallResult{
          Status::Internal("TakeBlocking on an unknown or already-taken "
                           "call"),
          {}};
    }
    if (core->shutdown) {
      return CallResult{Status::Cancelled("ReqPump shut down"), {}};
    }
    if (token != nullptr) {
      Status alive = token->CheckAlive();
      if (!alive.ok()) return CallResult{alive, {}};
      core->cv.WaitForMicros(core->mu, kCancelPollMicros);
    } else {
      core->cv.Wait(core->mu);
    }
  }
}

uint64_t ReqPump::completion_seq() const {
  MutexLock lock(&core_->mu);
  return core_->completion_seq;
}

void ReqPump::WaitForCompletionBeyond(uint64_t seq,
                                      const CancellationToken* token) {
  std::shared_ptr<Core> core = core_;  // survive shutdown mid-wait
  MutexLock lock(&core->mu);
  while (core->completion_seq <= seq && !core->shutdown) {
    if (token != nullptr) {
      if (!token->CheckAlive().ok()) return;
      core->cv.WaitForMicros(core->mu, kCancelPollMicros);
    } else {
      core->cv.Wait(core->mu);
    }
  }
}

void ReqPump::Drain() {
  std::shared_ptr<Core> core = core_;  // survive shutdown mid-wait
  MutexLock lock(&core->mu);
  while (core->outstanding != 0 && !core->shutdown) {
    core->cv.Wait(core->mu);
  }
}

ReqPumpStats ReqPump::stats() const {
  MutexLock lock(&core_->mu);
  return core_->stats;
}

int ReqPump::in_flight() const {
  MutexLock lock(&core_->mu);
  return core_->in_flight_global;
}

size_t ReqPump::pending_results() const {
  MutexLock lock(&core_->mu);
  return core_->results.size();
}

std::vector<ReqPump::InFlightCall> ReqPump::InFlightCalls() const {
  std::vector<InFlightCall> out;
  int64_t now = NowMicros();
  {
    MutexLock lock(&core_->mu);
    for (const auto& [id, meta] : core_->unresolved) {
      if (meta.dispatched_micros <= 0) continue;  // still queued
      InFlightCall call;
      call.id = id;
      call.destination = meta.destination;
      call.query_id = meta.query_id;
      call.age_micros = now - meta.dispatched_micros;
      out.push_back(std::move(call));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const InFlightCall& a, const InFlightCall& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace wsq
