#include "async/req_pump.h"

#include <algorithm>
#include <cassert>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/statusz.h"

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

/// A retry's backoff floor doubles per retry, at most this many times.
constexpr int kMaxBackoffDoublings = 16;

}  // namespace

ReqPump::ReqPump(Limits limits)
    : core_(std::make_shared<Core>(std::move(limits))),
      timer_([core = core_] { TimerLoop(std::move(core)); }) {
  // Publish the pump's stats ledger (kept authoritative in Core::stats)
  // via a collector; several pumps merge into process-wide series.
  collector_id_ = MetricsRegistry::Global()->AddCollector(
      [core = core_](MetricsEmitter* emitter) {
        ReqPumpStats s;
        int in_flight;
        size_t queued;
        size_t pending;
        std::map<std::string, CircuitBreaker> breakers;
        {
          MutexLock lock(&core->mu);
          s = core->stats;
          in_flight = core->in_flight_global;
          queued = core->queue.size();
          pending = core->results.size();
          breakers = core->breakers;
        }
        emitter->EmitCounter("wsq_reqpump_calls_registered_total",
                             "External calls registered", {}, s.registered);
        emitter->EmitCounter("wsq_reqpump_calls_dispatched_total",
                             "External calls handed to their dispatch fn",
                             {}, s.dispatched);
        emitter->EmitCounter("wsq_reqpump_calls_retried_total",
                             "Re-dispatches after a transient failure", {},
                             s.retried);
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
        for (const auto& [destination, breaker] : breakers) {
          MetricLabels labels{{"destination", destination}};
          const CircuitBreakerStats& b = breaker.stats();
          emitter->EmitCounter("wsq_circuit_trips_total",
                               "Circuit-breaker closed/half-open to open "
                               "transitions",
                               labels, b.trips);
          emitter->EmitCounter(
              "wsq_circuit_fast_failures_total",
              "Requests rejected while the circuit was open", labels,
              b.fast_failures);
          emitter->EmitCounter("wsq_circuit_probes_total",
                               "Probe requests admitted while half-open",
                               labels, b.probes);
          emitter->EmitGauge(
              "wsq_circuit_open", "1 while the circuit is open, else 0",
              labels, breaker.state() == CircuitState::kOpen ? 1 : 0);
        }
      });
  if (!core_->limits.breaker) return;
  statusz_id_ = StatuszRegistry::Global()->AddProvider(
      [core = core_](std::vector<StatuszSection>* out) {
        std::map<std::string, CircuitBreaker> breakers;
        {
          MutexLock lock(&core->mu);
          breakers = core->breakers;
        }
        for (const auto& [destination, breaker] : breakers) {
          StatuszSection s;
          s.name = "breaker/" + destination;
          s.Add("state", std::string(CircuitStateToString(breaker.state())));
          s.AddInt("consecutive_failures", breaker.consecutive_failures());
          s.AddUint("trips", breaker.stats().trips);
          s.AddUint("fast_failures", breaker.stats().fast_failures);
          s.AddUint("probes", breaker.stats().probes);
          out->push_back(std::move(s));
        }
      });
}

ReqPump::~ReqPump() {
  // Unhook the collector and provider before tearing anything down:
  // after this, no export can observe a half-destroyed pump.
  if (statusz_id_ != 0) StatuszRegistry::Global()->RemoveProvider(statusz_id_);
  MetricsRegistry::Global()->RemoveCollector(collector_id_);
  {
    MutexLock lock(&core_->mu);
    // From here on nothing is dispatched or retried. Calls waiting in
    // the queue or in a backoff are dropped now; in-flight ones are
    // waited for, while the timer thread keeps expiring their
    // deadlines. Abandoned (timed-out) calls already released their
    // slots and do not delay shutdown; their stragglers hit the shared
    // core later.
    core_->shutdown = true;
    std::vector<QueuedCall> none;
    for (auto it = core_->unresolved.begin();
         it != core_->unresolved.end();) {
      auto call = it++;
      if (call->second.phase == Phase::kInFlight) continue;
      ++core_->stats.cancelled;
      FlightRecorder::Global()->Record(
          FrEventType::kCallCancel, call->second.destination, "shutdown",
          call->second.query_id, static_cast<int64_t>(call->first));
      ResolveEarlyLocked(core_.get(), call,
                         CallResult{Status::Cancelled("ReqPump shut down"), {}},
                         /*notify=*/false, &none);
    }
    core_->cv.NotifyAll();
    while (core_->in_flight_global != 0) core_->cv.Wait(core_->mu);
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
  std::optional<QueuedCall> start;
  bool notify = false;
  const uint64_t query_id = CurrentQueryId();
  {
    MutexLock lock(&core_->mu);
    id = core_->next_id++;
    ++core_->stats.registered;
    const bool dispatch_now = CanDispatchLocked(*core_, destination);
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
    const int64_t now = NowMicros();
    CallMeta meta;
    meta.destination = destination;
    meta.registered_micros = now;
    meta.query_id = query_id;
    meta.on_result = std::move(on_result);
    if (timeout_micros > 0) {
      meta.deadline_micros = now + timeout_micros;
      core_->deadlines.push(
          Deadline{meta.deadline_micros, id, destination, nullptr});
      // Wake the timer only if it must re-arm for an earlier deadline.
      notify = core_->deadlines.top().when_micros == meta.deadline_micros;
    }
    auto it = core_->unresolved.emplace(id, std::move(meta)).first;
    QueuedCall call{id, destination, std::move(fn), query_id};
    if (!dispatch_now) {
      core_->queue.push_back(std::move(call));
      core_->stats.queued_peak =
          std::max(core_->stats.queued_peak,
                   static_cast<uint64_t>(core_->queue.size()));
    }
    // Under the lock, so a breaker rejection is logged after it.
    FlightRecorder::Global()->Record(
        FrEventType::kCallRegister, destination,
        dispatch_now ? "" : "queued", query_id, static_cast<int64_t>(id),
        dispatch_now ? 0 : static_cast<int64_t>(core_->queue.size()));
    if (dispatch_now) {
      if (StartLocked(core_.get(), it, &call, now)) {
        start = std::move(call);
      } else {
        notify = true;  // resolved: wake its consumer
      }
    }
  }
  if (notify) core_->cv.NotifyAll();
  if (start) Dispatch(core_, std::move(*start));
  return id;
}

bool ReqPump::StartLocked(Core* core,
                          std::unordered_map<CallId, CallMeta>::iterator meta,
                          QueuedCall* call, int64_t now) {
  CallMeta& m = meta->second;
  call->retry = m.attempts > 0;
  if (!call->retry) {
    if (core->limits.breaker) {
      CircuitBreaker& breaker =
          core->breakers
              .try_emplace(m.destination, *core->limits.breaker,
                           m.destination)
              .first->second;
      if (!breaker.Allow(&m.as_probe)) {
        // Fail fast: never dispatched, so never retried either.
        ++core->stats.completed;
        ++core->stats.failed;
        FlightRecorder::Global()->Record(
            FrEventType::kCallFailed, m.destination, "circuit_open",
            m.query_id, static_cast<int64_t>(meta->first));
        StoreResultLocked(
            core, meta,
            CallResult{Status::Unavailable("circuit open for destination: " +
                                           m.destination),
                       {}},
            /*notify=*/true);
        return false;
      }
    }
    ++core->stats.dispatched;
    m.dispatched_micros = now;
  } else {
    ++core->stats.retried;
  }
  m.phase = Phase::kInFlight;
  // Keep a copy of the fn while another attempt may follow this one.
  if (++m.attempts < core->limits.retry.max_attempts) m.fn = call->fn;
  ++core->in_flight_global;
  ++core->in_flight_by_dest[m.destination];
  core->stats.max_in_flight =
      std::max(core->stats.max_in_flight,
               static_cast<uint64_t>(core->in_flight_global));
  return true;
}

void ReqPump::Dispatch(const std::shared_ptr<Core>& core, QueuedCall call) {
  FlightRecorder::Global()->Record(
      FrEventType::kCallDispatch, call.destination,
      call.retry ? "retry" : "", call.query_id,
      static_cast<int64_t>(call.id));
  // The completion may fire synchronously (e.g. a cache hit) or from a
  // service thread later; both paths go through OnComplete. The lambda
  // keeps the core alive so even a completion arriving after ~ReqPump
  // is safe.
  AsyncCallFn fn = std::move(call.fn);
  fn([core, id = call.id,
      destination = std::move(call.destination)](CallResult result) {
    OnComplete(core, id, destination, std::move(result));
  });
}

void ReqPump::DispatchAll(const std::shared_ptr<Core>& core,
                          std::vector<QueuedCall>* calls) {
  for (QueuedCall& call : *calls) Dispatch(core, std::move(call));
}

void ReqPump::OnComplete(const std::shared_ptr<Core>& core, CallId id,
                         const std::string& destination,
                         CallResult result) {
  std::vector<QueuedCall> to_dispatch;
  int64_t queue_wait_micros = 0;
  int64_t in_flight_micros = 0;
  bool retrying = false;
  std::string failure_code;
  uint64_t query_id = 0;
  {
    MutexLock lock(&core->mu);
    if (auto abandoned = core->abandoned.find(id);
        abandoned != core->abandoned.end()) {
      // The call was already resolved (deadline or cancel) and released
      // its slots; its real result arrives too late for the consumer
      // and only teaches the breaker.
      LearnLocked(core.get(), destination, result.status,
                  abandoned->second);
      core->abandoned.erase(abandoned);
      ++core->stats.late_discarded;
      lock.Unlock();
      FlightRecorder::Global()->Record(FrEventType::kCallLateDiscard,
                                       destination, "", /*query_id=*/0,
                                       static_cast<int64_t>(id));
      return;
    }
    // A dispatched call that was not abandoned is still unresolved.
    auto meta = core->unresolved.find(id);
    assert(meta != core->unresolved.end());
    CallMeta& m = meta->second;
    query_id = m.query_id;
    --core->in_flight_global;
    --core->in_flight_by_dest[destination];
    const int64_t now = NowMicros();
    if (!result.status.ok() && IsTransient(result.status.code()) &&
        !core->shutdown && m.attempts < core->limits.retry.max_attempts) {
      const int64_t floor =
          std::max<int64_t>(0, core->limits.retry.initial_backoff_micros)
          << std::min(m.attempts - 1, kMaxBackoffDoublings);
      // Retry unless even the backoff's floor ends past the deadline: a
      // retry that cannot start in time would only turn the engine's
      // answer into a timeout.
      if (m.deadline_micros == 0 || now + floor < m.deadline_micros) {
        const int64_t when = now + core->rng.UniformRange(floor, 3 * floor);
        m.phase = Phase::kBackoff;
        m.last_failure = std::move(result.status);
        core->deadlines.push(Deadline{when, id, destination, nullptr,
                                      /*retry=*/true});
        retrying = true;
      }
    }
    if (!retrying) {
      queue_wait_micros = m.dispatched_micros - m.registered_micros;
      in_flight_micros = now - m.dispatched_micros;
      core->stats.queue_wait_micros_total += queue_wait_micros;
      core->stats.in_flight_micros_total += in_flight_micros;
      if (!result.status.ok()) {
        ++core->stats.failed;
        failure_code = StatusCodeToString(result.status.code());
      }
      ++core->stats.completed;
      LearnLocked(core.get(), destination, result.status, m.as_probe);
      result.queue_wait_micros = queue_wait_micros;
      result.in_flight_micros = in_flight_micros;
      StoreResultLocked(core.get(), meta, std::move(result), /*notify=*/true);
    }
    to_dispatch = TakeDispatchableLocked(core.get());
  }
  core->cv.NotifyAll();
  if (!retrying) {
    // Outside the lock (see RecordCallTiming).
    FlightRecorder::Global()->Record(
        failure_code.empty() ? FrEventType::kCallComplete
                             : FrEventType::kCallFailed,
        destination, failure_code, query_id, static_cast<int64_t>(id),
        in_flight_micros);
    RecordCallTiming(destination, queue_wait_micros, in_flight_micros,
                     query_id);
  }
  DispatchAll(core, &to_dispatch);
}

void ReqPump::StoreResultLocked(
    Core* core, std::unordered_map<CallId, CallMeta>::iterator meta,
    CallResult result, bool notify) {
  if (notify && meta->second.on_result) {
    core->notifications.push_back(std::move(meta->second.on_result));
  }
  core->results[meta->first] = std::move(result);
  core->unresolved.erase(meta);
  ++core->completion_seq;
  --core->outstanding;
}

void ReqPump::LearnLocked(Core* core, const std::string& destination,
                          const Status& status, bool as_probe) {
  auto it = core->breakers.find(destination);
  if (it == core->breakers.end()) return;  // breakers are off
  if (status.ok()) {
    it->second.RecordSuccess(as_probe);
  } else {
    it->second.RecordFailure(status, as_probe);
  }
}

std::vector<ReqPump::QueuedCall> ReqPump::TakeDispatchableLocked(
    Core* core) {
  std::vector<QueuedCall> out;
  if (core->shutdown || core->queue.empty()) return out;
  const int64_t now = NowMicros();
  // FIFO per scan; a blocked head does not starve other destinations.
  for (auto it = core->queue.begin(); it != core->queue.end();) {
    if (core->limits.max_global > 0 &&
        core->in_flight_global >= core->limits.max_global) {
      break;
    }
    if (!CanDispatchLocked(*core, it->destination)) {
      ++it;
      continue;
    }
    QueuedCall call = std::move(*it);
    it = core->queue.erase(it);
    // A queued call is unresolved: resolving one removes it from here.
    if (StartLocked(core, core->unresolved.find(call.id), &call, now)) {
      out.push_back(std::move(call));
    }
  }
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
    // At shutdown the loop keeps expiring deadlines until no call is in
    // flight, so ~ReqPump's wait for them cannot hang on a dead engine.
    if (core->shutdown && core->in_flight_global == 0) break;
    // Drop stale heap entries (calls that resolved before their
    // deadline or backoff end) so they don't force pointless wakeups.
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

    std::vector<QueuedCall> to_dispatch;
    if (d.retry) {
      // The backoff is over: the call queues for a slot again, unless
      // its deadline passed meanwhile — its own entry, due now too,
      // resolves it.
      CallMeta& m = meta->second;
      if (m.deadline_micros > 0 && now >= m.deadline_micros) continue;
      m.phase = Phase::kQueued;
      core->queue.push_back(
          QueuedCall{d.id, d.destination, std::move(m.fn), m.query_id});
      to_dispatch = TakeDispatchableLocked(core.get());
      lock.Unlock();
      core->cv.NotifyAll();  // the scan may have resolved rejected calls
      DispatchAll(core, &to_dispatch);
      lock.Lock();
      continue;
    }

    // Time the call out: complete it with kDeadlineExceeded so blocked
    // consumers wake immediately.
    ++core->stats.timed_out;
    ++core->stats.failed;
    ++core->stats.completed;
    const uint64_t query_id = meta->second.query_id;
    const Phase phase = ResolveEarlyLocked(
        core.get(), meta,
        CallResult{Status::DeadlineExceeded("external call to '" +
                                            d.destination +
                                            "' exceeded its deadline"),
                   {}},
        /*notify=*/true, &to_dispatch);
    const int64_t in_flight_micros = core->results[d.id].in_flight_micros;
    lock.Unlock();
    FlightRecorder::Global()->Record(
        FrEventType::kCallTimeout, d.destination,
        phase == Phase::kQueued     ? "expired_in_queue"
        : phase == Phase::kBackoff ? "expired_in_backoff"
                                   : "abandoned",
        query_id, static_cast<int64_t>(d.id), in_flight_micros);
    core->cv.NotifyAll();
    DispatchAll(core, &to_dispatch);
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

ReqPump::Phase ReqPump::ResolveEarlyLocked(
    Core* core, std::unordered_map<CallId, CallMeta>::iterator meta,
    CallResult result, bool notify, std::vector<QueuedCall>* to_dispatch) {
  const CallId id = meta->first;
  const CallMeta& call = meta->second;
  const Phase phase = call.phase;
  if (call.dispatched_micros > 0) {
    result.queue_wait_micros = call.dispatched_micros - call.registered_micros;
    result.in_flight_micros = NowMicros() - call.dispatched_micros;
    core->stats.queue_wait_micros_total += result.queue_wait_micros;
    core->stats.in_flight_micros_total += result.in_flight_micros;
  }
  if (phase == Phase::kInFlight) {
    // Abandon it and free its limit slots now, so the queue behind a
    // hung destination keeps moving; its real completion, if one ever
    // arrives, only teaches the breaker.
    core->abandoned.emplace(id, call.as_probe);
    --core->in_flight_global;
    --core->in_flight_by_dest[call.destination];
  } else {
    if (phase == Phase::kQueued) {
      auto queued =
          std::find_if(core->queue.begin(), core->queue.end(),
                       [id](const QueuedCall& q) { return q.id == id; });
      if (queued != core->queue.end()) core->queue.erase(queued);
    }
    // Not in flight, so no straggler is coming. A retried call ends
    // with its last failed attempt, which the breaker learns now.
    if (call.attempts > 0) {
      LearnLocked(core, call.destination, call.last_failure, call.as_probe);
    }
  }
  StoreResultLocked(core, meta, std::move(result), notify);
  if (phase == Phase::kInFlight) *to_dispatch = TakeDispatchableLocked(core);
  return phase;
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
        /*notify=*/false, &to_dispatch);
  }
  FlightRecorder::Global()->Record(FrEventType::kCallCancel, destination, "",
                                   query_id, static_cast<int64_t>(id));
  core_->cv.NotifyAll();
  DispatchAll(core_, &to_dispatch);
  return true;
}

size_t ReqPump::CancelAndTake(std::span<const CallId> calls) {
  size_t cancelled = 0;
  for (auto it = calls.rbegin(); it != calls.rend(); ++it) {
    if (CancelCall(*it)) ++cancelled;
    CallResult discarded;
    TryTake(*it, &discarded);
  }
  return cancelled;
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

std::optional<CircuitBreaker> ReqPump::breaker(
    const std::string& destination) const {
  MutexLock lock(&core_->mu);
  auto it = core_->breakers.find(destination);
  if (it == core_->breakers.end()) return std::nullopt;
  return it->second;
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
      if (meta.phase != Phase::kInFlight) continue;
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
