#include "async/req_pump.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace wsq {

namespace {

/// The latency histogram of `destination`'s dispatches. Takes the
/// registry's lock, so never called under Core::mu: the lock order is
/// registry → component, and the pump's collector runs under the
/// registry's lock.
Histogram* LatencyHistogram(const std::string& destination) {
  return MetricsRegistry::Global()->GetHistogram(
      "wsq_external_call_latency_micros",
      "Dispatch-to-completion latency of external calls",
      {{"destination", destination}});
}

/// The queue-wait histogram, looked up on first use, which ReqPump's
/// constructor makes outside every lock: a first lookup on a call's
/// completion could run under a caller's lock (a call may complete
/// inline in Register), and the registry's lock comes first.
Histogram* QueueWaitHistogram() {
  static Histogram* const kQueueWait = MetricsRegistry::Global()->GetHistogram(
      "wsq_reqpump_queue_wait_micros",
      "Time external calls waited for a ReqPump limit slot");
  return kQueueWait;
}

/// Records one resolved call's timings into `latency` (its
/// destination's histogram) and the queue-wait histogram. Both are
/// lock-free, so callers hold Core::mu: whoever sees the call resolved
/// sees its timings recorded. `query_id` feeds the latency exemplars:
/// completions land on pump or service threads, so the thread-bound id
/// is not available here.
void RecordCallTiming(Histogram* latency, int64_t queue_wait_micros,
                      int64_t in_flight_micros, uint64_t query_id) {
  if (latency != nullptr) {
    latency->RecordWithExemplar(in_flight_micros, query_id);
  }
  if (Histogram* queue_wait = QueueWaitHistogram()) {
    queue_wait->Record(queue_wait_micros);
  }
}

/// A retry's backoff floor doubles per retry, at most this many times.
constexpr int kMaxBackoffDoublings = 16;

/// Hedge a call once its first dispatch has been out for this quantile
/// of its destination's latencies...
constexpr double kHedgeQuantile = 0.95;
/// ...once this pump has seen this many of them (no hedge before)...
constexpr uint64_t kMinHedgeSamples = 50;
/// ...but never sooner than this: a noisy fast quantile must not turn
/// hedging into always-mirror.
constexpr int64_t kHedgeMinDelayMicros = 1000;

/// The upper edge of the histogram bucket holding `h`'s `q`-quantile,
/// at most its maximum. A bucket's midpoint would fall below about half
/// of its samples, so at a near-constant latency most calls would
/// outlast it; its upper edge is beaten by all of them.
int64_t QuantileUpperBound(const HistogramSnapshot& h, double q) {
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(h.count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    seen += h.buckets[i];
    if (seen > rank) return std::min(HistogramBucketUpperBound(i), h.max);
  }
  return h.max;
}

}  // namespace

ReqPump::ReqPump(Limits limits)
    : core_(std::make_shared<Core>(std::move(limits))),
      timer_([core = core_] { TimerLoop(std::move(core)); }) {
  QueueWaitHistogram();
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
          breakers = BreakersLocked(*core);
        }
        emitter->EmitCounter("wsq_reqpump_calls_registered_total",
                             "External calls registered", {}, s.registered);
        emitter->EmitCounter("wsq_reqpump_calls_dispatched_total",
                             "External calls handed to their dispatch fn",
                             {}, s.dispatched);
        emitter->EmitCounter(
            "wsq_reqpump_calls_joined_total",
            "Registrations that joined an unresolved call with the same "
            "request key",
            {}, s.joined);
        emitter->EmitCounter("wsq_reqpump_calls_retried_total",
                             "Re-dispatches after a transient failure", {},
                             s.retried);
        emitter->EmitCounter(
            "wsq_reqpump_calls_hedged_total",
            "Calls sent to their hedge target (latency hedge or failover)",
            {}, s.hedged);
        emitter->EmitCounter("wsq_reqpump_hedge_wins_total",
                             "Hedged calls resolved by the hedge's answer",
                             {}, s.hedge_wins);
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
          emitter->EmitGauge(
              "wsq_circuit_half_open",
              "1 while the circuit is half-open, else 0", labels,
              breaker.state() == CircuitState::kHalfOpen ? 1 : 0);
          emitter->EmitGauge(
              "wsq_circuit_consecutive_failures",
              "Consecutive transient failures counted toward a trip",
              labels, breaker.consecutive_failures());
        }
      });
}

ReqPump::~ReqPump() {
  // Unhook the collector before tearing anything down: after this, no
  // export can observe a half-destroyed pump.
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
      auto reg = it++;
      const CallMeta& call = core_->calls.at(reg->second.call);
      if (call.phase == Phase::kInFlight ||
          call.hedge == HedgePhase::kInFlight) {
        continue;
      }
      ++core_->stats.cancelled;
      FlightRecorder::Global()->Record(
          FrEventType::kCallCancel, call.destination, "shutdown",
          reg->second.query_id, static_cast<int64_t>(reg->first));
      ResolveEarlyLocked(core_.get(), reg,
                         CallResult{Status::Cancelled("ReqPump shut down"), {}},
                         /*notify=*/false, &none);
    }
    core_->cv.NotifyAll();
    while (core_->in_flight_global != 0) core_->cv.Wait(core_->mu);
  }
  core_->cv.NotifyAll();
  timer_.join();
}

bool ReqPump::StaleLocked(const Core& core, const Deadline& d) {
  return (d.kind == Deadline::Kind::kRegistration
              ? core.unresolved.count(d.id)
              : core.calls.count(d.id)) == 0;
}

bool ReqPump::CanDispatchLocked(const Core& core,
                                const Destination& destination) {
  if (core.limits.max_global > 0 &&
      core.in_flight_global >= core.limits.max_global) {
    return false;
  }
  return core.limits.max_per_destination <= 0 ||
         destination.in_flight < core.limits.max_per_destination;
}

ReqPump::Destination* ReqPump::AddDestinationLocked(
    Core* core, const std::string& destination, Histogram* latency) {
  auto [it, added] = core->destinations.try_emplace(destination);
  if (added) {
    it->second.latency = latency;
    if (core->limits.breaker) {
      it->second.breaker.emplace(*core->limits.breaker, destination);
    }
  }
  return &it->second;
}

std::map<std::string, CircuitBreaker> ReqPump::BreakersLocked(
    const Core& core) {
  std::map<std::string, CircuitBreaker> out;
  for (const auto& [name, destination] : core.destinations) {
    if (destination.breaker) out.emplace(name, *destination.breaker);
  }
  return out;
}

CallId ReqPump::Register(const std::string& destination, AsyncCallFn fn) {
  return Register(destination, std::move(fn),
                  core_->limits.default_timeout_micros);
}

CallId ReqPump::Register(const std::string& destination, AsyncCallFn fn,
                         int64_t timeout_micros, PumpCallback on_result,
                         const std::string& key, bool* joined,
                         std::optional<HedgeTarget> hedge) {
  CallId id;
  std::optional<QueuedCall> start;
  bool notify = false;
  bool joins = false;
  const uint64_t query_id = CurrentQueryId();
  {
    MutexLock lock(&core_->mu);
    auto known = core_->destinations.find(destination);
    Destination* dest =
        known != core_->destinations.end() ? &known->second : nullptr;
    Destination* hedge_dest = nullptr;
    if (hedge) {
      auto target = core_->destinations.find(hedge->destination);
      if (target != core_->destinations.end()) hedge_dest = &target->second;
    }
    if (dest == nullptr || (hedge && hedge_dest == nullptr)) {
      // A destination's first call: its histogram comes from the
      // registry, whose lock is taken before the pump's.
      lock.Unlock();
      Histogram* latency = LatencyHistogram(destination);
      Histogram* hedge_latency =
          hedge ? LatencyHistogram(hedge->destination) : nullptr;
      lock.Lock();
      dest = AddDestinationLocked(core_.get(), destination, latency);
      if (hedge) {
        hedge_dest = AddDestinationLocked(core_.get(), hedge->destination,
                                          hedge_latency);
      }
    }
    id = core_->next_id++;
    ++core_->stats.registered;
    auto keyed = key.empty() ? dest->keyed.end() : dest->keyed.find(key);
    joins = keyed != dest->keyed.end();
    if (joins && !keyed->second.holders.empty()) {
      // The call has answered and a copy of its answer still waits in
      // ReqPumpHash: this registration resolves now with its own copy.
      std::vector<CallId>& holders = keyed->second.holders;
      CallResult answer = core_->results.at(holders.front());
      answer.queue_wait_micros = 0;
      answer.in_flight_micros = 0;
      answer.hedged = false;
      answer.hedge_won = false;
      ++core_->stats.joined;
      ++core_->stats.completed;
      if (!answer.status.ok()) ++core_->stats.failed;
      holders.push_back(id);
      core_->held.try_emplace(id, dest, key);
      core_->results[id] = std::move(answer);
      if (on_result) core_->notifications.push_back(std::move(on_result));
      ++core_->completion_seq;
      FlightRecorder::Global()->Record(
          FrEventType::kCoalesceJoin, destination, "answered", query_id,
          static_cast<int64_t>(keyed->second.call), static_cast<int64_t>(id));
      core_->cv.NotifyAll();
      if (joined != nullptr) *joined = true;
      return id;
    }
    const bool dispatch_now = !joins && CanDispatchLocked(*core_, *dest);
    if (!joins && !dispatch_now && core_->limits.max_queued > 0 &&
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
      if (joined != nullptr) *joined = false;
      return id;
    }
    ++core_->outstanding;
    const int64_t now = NowMicros();
    Registration reg;
    reg.call = joins ? keyed->second.call : id;
    reg.registered_micros = now;
    reg.query_id = query_id;
    reg.on_result = std::move(on_result);
    if (timeout_micros > 0) {
      reg.deadline_micros = now + timeout_micros;
      core_->deadlines.push(Deadline{reg.deadline_micros, id, destination});
      // Wake the timer only if it must re-arm for an earlier deadline.
      notify = core_->deadlines.top().when_micros == reg.deadline_micros;
    }
    core_->unresolved.emplace(id, std::move(reg));
    if (joins) {
      // Same request as an unresolved call: wait on it instead.
      ++core_->stats.joined;
      core_->calls.at(keyed->second.call).joiners.push_back(id);
      FlightRecorder::Global()->Record(
          FrEventType::kCoalesceJoin, destination, "", query_id,
          static_cast<int64_t>(keyed->second.call), static_cast<int64_t>(id));
    } else {
      auto call = core_->calls.try_emplace(id).first;
      CallMeta& meta = call->second;
      meta.destination = destination;
      meta.dest = dest;
      meta.key = key;
      meta.registered_micros = now;
      meta.query_id = query_id;
      meta.joiners.push_back(id);
      if (hedge) {
        meta.hedge_destination = std::move(hedge->destination);
        meta.hedge_dest = hedge_dest;
        meta.hedge_fn = std::move(hedge->fn);
      }
      if (!key.empty()) dest->keyed.emplace(key, KeyedCall{id, {}});
      QueuedCall queued{id, destination, std::move(fn), query_id};
      if (!dispatch_now) EnqueueLocked(core_.get(), std::move(queued));
      // Under the lock, so a breaker rejection is logged after it.
      FlightRecorder::Global()->Record(
          FrEventType::kCallRegister, destination,
          dispatch_now ? "" : "queued", query_id, static_cast<int64_t>(id),
          dispatch_now ? 0 : static_cast<int64_t>(core_->queue.size()));
      if (dispatch_now) {
        switch (StartLocked(core_.get(), call, &queued, now)) {
          case Start::kStarted:
            start = std::move(queued);
            break;
          case Start::kWaiting:
            EnqueueLocked(core_.get(), std::move(queued));
            break;
          case Start::kResolved:
            notify = true;  // wake its consumer
            break;
        }
      }
    }
  }
  if (joined != nullptr) *joined = joins;
  if (notify) core_->cv.NotifyAll();
  if (start) Dispatch(core_, std::move(*start));
  return id;
}

ReqPump::Start ReqPump::StartLocked(Core* core, CallIt call,
                                    QueuedCall* queued, int64_t now) {
  CallMeta& m = call->second;
  if (queued->hedge_cause != nullptr) {
    // A failover: one attempt at the alternate, if its breaker admits
    // it; else the primary's failure is final.
    if (m.hedge_dest->breaker &&
        !m.hedge_dest->breaker->Allow(&m.hedge_as_probe)) {
      FlightRecorder::Global()->Record(
          FrEventType::kCallFailed, m.hedge_destination, "circuit_open",
          m.query_id, static_cast<int64_t>(call->first));
      ResolveCallLocked(core, call, CallResult{m.last_failure, {}},
                        /*answer=*/false, now);
      return Start::kResolved;
    }
    // A call its breaker rejected waited for the alternate from here.
    if (m.dispatched_micros == 0) m.dispatched_micros = now;
    SendHedgeLocked(core, &m, now);
    return Start::kStarted;
  }
  queued->retry = m.attempts > 0;
  if (!queued->retry) {
    if (m.dest->breaker && !m.dest->breaker->Allow(&m.as_probe)) {
      // Fail fast: never dispatched, so never retried either; the call
      // fails over to an alternate, which `*queued` becomes.
      FlightRecorder::Global()->Record(
          FrEventType::kCallFailed, m.destination, "circuit_open",
          m.query_id, static_cast<int64_t>(call->first));
      Status open =
          Status::Unavailable("circuit open for destination: " + m.destination);
      if (!HasAlternate(m)) {
        ResolveCallLocked(core, call, CallResult{std::move(open), {}},
                          /*answer=*/false, now);
        return Start::kResolved;
      }
      *queued = FailOverLocked(call, std::move(open));
      if (!CanDispatchLocked(*core, *m.hedge_dest)) return Start::kWaiting;
      return StartLocked(core, call, queued, now);
    }
    ++core->stats.dispatched;
    m.dispatched_micros = now;
    const bool self_hedge = m.hedge_dest == m.dest;
    if (m.hedge_dest != nullptr && m.dest->hedge_delay_micros > 0 &&
        (!self_hedge || m.dest->overtaken)) {
      // The hedge is due once this first dispatch has been out for the
      // destination's hedge delay. A self-hedge may resend the call's
      // own fn.
      if (self_hedge && !m.hedge_fn) m.hedge_fn = queued->fn;
      const int64_t when = now + m.dest->hedge_delay_micros;
      core->deadlines.push(
          Deadline{when, call->first, {}, Deadline::Kind::kHedge});
      if (core->deadlines.top().when_micros == when) core->cv.NotifyAll();
    }
  } else {
    ++core->stats.retried;
  }
  m.phase = Phase::kInFlight;
  // Keep a copy of the fn while another attempt may follow this one.
  if (++m.attempts < core->limits.retry.max_attempts) m.fn = queued->fn;
  ++core->in_flight_global;
  ++m.dest->in_flight;
  core->stats.max_in_flight =
      std::max(core->stats.max_in_flight,
               static_cast<uint64_t>(core->in_flight_global));
  return Start::kStarted;
}

void ReqPump::Dispatch(const std::shared_ptr<Core>& core, QueuedCall call) {
  const bool hedge = call.hedge_cause != nullptr;
  FlightRecorder::Global()->Record(
      hedge ? FrEventType::kHedgeFire : FrEventType::kCallDispatch,
      call.destination,
      hedge ? call.hedge_cause : (call.retry ? "retry" : ""), call.query_id,
      static_cast<int64_t>(call.id));
  // The completion may fire synchronously (e.g. a cache hit) or from a
  // service thread later; both paths go through OnComplete. The lambda
  // keeps the core alive so even a completion arriving after ~ReqPump
  // is safe.
  AsyncCallFn fn = std::move(call.fn);
  fn([core, id = call.id, destination = std::move(call.destination),
      hedge](CallResult result) {
    OnComplete(core, id, destination, hedge, std::move(result));
  });
}

void ReqPump::DispatchAll(const std::shared_ptr<Core>& core,
                          std::vector<QueuedCall>* calls) {
  for (QueuedCall& call : *calls) Dispatch(core, std::move(call));
}

void ReqPump::OnComplete(const std::shared_ptr<Core>& core, CallId id,
                         const std::string& destination, bool hedge,
                         CallResult result) {
  std::vector<QueuedCall> to_dispatch;
  {
    MutexLock lock(&core->mu);
    if (auto abandoned = core->abandoned.find(DispatchKey(id, hedge));
        abandoned != core->abandoned.end()) {
      // The dispatch was already given up (deadline, cancel, or the
      // other dispatch answered) and released its slot; its real result
      // arrives too late for anyone and only teaches the breaker.
      LearnLocked(&core->destinations.at(destination), result.status,
                  abandoned->second);
      core->abandoned.erase(abandoned);
      ++core->stats.late_discarded;
      lock.Unlock();
      FlightRecorder::Global()->Record(FrEventType::kCallLateDiscard,
                                       destination, "", /*query_id=*/0,
                                       static_cast<int64_t>(id));
      return;
    }
    // A dispatch that was not abandoned belongs to an unresolved call.
    auto call = core->calls.find(id);
    assert(call != core->calls.end());
    CallMeta& m = call->second;
    const uint64_t query_id = m.query_id;
    --core->in_flight_global;
    const int64_t now = NowMicros();
    // Where this answer came from, and how long it took: an alternate's
    // from its own dispatch, else the call's from its first.
    Destination* answered_at = hedge ? m.hedge_dest : m.dest;
    const int64_t in_flight_micros =
        now - (answered_at != m.dest ? m.hedge_dispatched_micros
                                     : m.dispatched_micros);
    const std::string_view failure_code =
        result.status.ok() ? std::string_view()
                           : StatusCodeToString(result.status.code());
    // Whether `result` resolves the call now.
    bool decides = true;
    bool retrying = false;
    if (hedge) {
      --m.hedge_dest->in_flight;
      LearnLocked(m.hedge_dest, result.status, m.hedge_as_probe);
      // A failed hedge decides only once the call's own dispatch has
      // failed too.
      decides = result.status.ok() || m.phase == Phase::kFailed;
      if (!decides) m.hedge = HedgePhase::kFailed;
    } else {
      --m.dest->in_flight;
      if (m.attempts == 1) NoteAnswerLocked(m.dest, m.dispatched_micros);
      if (!result.status.ok() && m.hedge != HedgePhase::kInFlight &&
          IsTransient(result.status.code()) && !core->shutdown &&
          m.attempts < core->limits.retry.max_attempts) {
        const int64_t floor =
            std::max<int64_t>(0, core->limits.retry.initial_backoff_micros)
            << std::min(m.attempts - 1, kMaxBackoffDoublings);
        // Retry unless even the backoff's floor ends past the latest
        // deadline of its registrations: a retry that cannot start in
        // time would only turn the engine's answer into a timeout.
        const int64_t deadline = LatestDeadlineLocked(*core, m);
        if (deadline == 0 || now + floor < deadline) {
          const int64_t when =
              now + core->rng.UniformRange(floor, 3 * floor);
          m.phase = Phase::kBackoff;
          m.last_failure = std::move(result.status);
          core->deadlines.push(
              Deadline{when, id, destination, Deadline::Kind::kRetry});
          retrying = true;
          decides = false;
        }
      }
      if (!retrying) {
        LearnLocked(m.dest, result.status, m.as_probe);
        if (!result.status.ok() && HasAlternate(m) && !core->shutdown) {
          // The call fails over: the failover queues behind the calls
          // already waiting, and decides instead.
          EnqueueLocked(core.get(), FailOverLocked(call, result.status));
          decides = false;
        } else if (!result.status.ok() && m.hedge == HedgePhase::kInFlight) {
          // The hedge already out decides instead.
          m.phase = Phase::kFailed;
          m.last_failure = result.status;
          decides = false;
        }
      }
    }
    if (!retrying) {
      FlightRecorder::Global()->Record(
          failure_code.empty() ? FrEventType::kCallComplete
                               : FrEventType::kCallFailed,
          destination, failure_code, query_id, static_cast<int64_t>(id),
          in_flight_micros);
    }
    if (decides) {
      // The other dispatch, if still out, lost.
      const bool other_out = hedge ? m.phase == Phase::kInFlight
                                   : m.hedge == HedgePhase::kInFlight;
      if (other_out) {
        AbandonLocked(core.get(), call, /*hedge=*/!hedge);
        FlightRecorder::Global()->Record(
            FrEventType::kHedgeReap,
            hedge ? m.destination : m.hedge_destination,
            hedge ? "primary_lost" : "hedge_lost", query_id,
            static_cast<int64_t>(id));
      }
      result.hedge_won = hedge && result.status.ok();
      if (result.hedge_won) ++core->stats.hedge_wins;
      RecordCallTiming(answered_at->latency,
                       m.dispatched_micros - m.registered_micros,
                       in_flight_micros, query_id);
      RecordLatencyLocked(answered_at, in_flight_micros);
      ResolveCallLocked(core.get(), call, std::move(result),
                        /*answer=*/true, now);
    }
    to_dispatch = TakeDispatchableLocked(core.get());
  }
  core->cv.NotifyAll();
  DispatchAll(core, &to_dispatch);
}

std::optional<ReqPump::QueuedCall> ReqPump::StartHedgeLocked(Core* core,
                                                             CallIt call) {
  CallMeta& m = call->second;
  // A hedge never queues: without a free slot at its target there is
  // none. A call waiting for a slot there would have taken a free one.
  if (core->shutdown || !m.hedge_fn || m.hedge != HedgePhase::kNone ||
      !CanDispatchLocked(*core, *m.hedge_dest)) {
    return std::nullopt;
  }
  if (m.hedge_dest->breaker &&
      !m.hedge_dest->breaker->Allow(&m.hedge_as_probe)) {
    return std::nullopt;
  }
  SendHedgeLocked(core, &m, NowMicros());
  QueuedCall hedge{call->first, m.hedge_destination,
                   std::exchange(m.hedge_fn, nullptr), m.query_id};
  hedge.hedge_cause = "latency_quantile";
  return hedge;
}

ReqPump::QueuedCall ReqPump::FailOverLocked(CallIt call, Status failure) {
  CallMeta& m = call->second;
  m.phase = Phase::kFailed;
  m.last_failure = std::move(failure);
  m.hedge = HedgePhase::kQueued;
  QueuedCall failover{call->first, m.hedge_destination,
                      std::exchange(m.hedge_fn, nullptr), m.query_id};
  failover.hedge_cause = "primary_failed";
  return failover;
}

void ReqPump::SendHedgeLocked(Core* core, CallMeta* call, int64_t now) {
  call->hedge = HedgePhase::kInFlight;
  call->hedge_dispatched_micros = now;
  ++core->stats.hedged;
  ++core->in_flight_global;
  ++call->hedge_dest->in_flight;
  core->stats.max_in_flight =
      std::max(core->stats.max_in_flight,
               static_cast<uint64_t>(core->in_flight_global));
}

void ReqPump::EnqueueLocked(Core* core, QueuedCall call) {
  core->queue.push_back(std::move(call));
  core->stats.queued_peak = std::max(
      core->stats.queued_peak, static_cast<uint64_t>(core->queue.size()));
}

void ReqPump::NoteAnswerLocked(Destination* destination,
                               int64_t dispatched_micros) {
  if (dispatched_micros + kHedgeMinDelayMicros <=
      destination->latest_answered_dispatch_micros) {
    destination->overtaken = true;
  }
  destination->latest_answered_dispatch_micros = std::max(
      destination->latest_answered_dispatch_micros, dispatched_micros);
}

void ReqPump::AbandonLocked(Core* core, CallIt call, bool hedge) {
  CallMeta& m = call->second;
  core->abandoned.emplace(DispatchKey(call->first, hedge),
                          hedge ? m.hedge_as_probe : m.as_probe);
  --core->in_flight_global;
  --(hedge ? m.hedge_dest : m.dest)->in_flight;
}

void ReqPump::RecordLatencyLocked(Destination* destination, int64_t micros) {
  HistogramSnapshot& h = destination->latencies;
  if (h.buckets.empty()) h.buckets.assign(kHistogramBuckets, 0);
  micros = std::max<int64_t>(micros, 0);
  ++h.buckets[HistogramBucketIndex(micros)];
  ++h.count;
  h.sum += static_cast<uint64_t>(micros);
  h.max = std::max(h.max, micros);
  if (h.count % kMinHedgeSamples == 0) {
    destination->hedge_delay_micros = std::max(
        QuantileUpperBound(h, kHedgeQuantile), kHedgeMinDelayMicros);
  }
}

void ReqPump::ResolveCallLocked(Core* core, CallIt call, CallResult result,
                                bool answer, int64_t now) {
  const std::vector<CallId>& joiners = call->second.joiners;
  core->stats.completed += joiners.size();
  if (!result.status.ok()) core->stats.failed += joiners.size();
  // Each registration gets its own copy; the last one takes the result.
  for (size_t i = 0; i + 1 < joiners.size(); ++i) {
    StoreResultLocked(core, core->unresolved.find(joiners[i]), call->second,
                      result, /*notify=*/true, now);
  }
  StoreResultLocked(core, core->unresolved.find(joiners.back()),
                    call->second, std::move(result), /*notify=*/true, now);
  EndCallLocked(core, call, answer);
}

void ReqPump::StoreResultLocked(Core* core, RegistrationIt reg,
                                const CallMeta& call, CallResult result,
                                bool notify, int64_t now) {
  Registration& r = reg->second;
  result.hedged = call.hedge_dispatched_micros > 0;
  if (call.dispatched_micros > 0) {
    // A registration that joined a dispatched call waited on it only
    // from its own registration on.
    const int64_t start = std::max(call.dispatched_micros, r.registered_micros);
    result.queue_wait_micros = start - r.registered_micros;
    result.in_flight_micros = now - start;
    core->stats.queue_wait_micros_total += result.queue_wait_micros;
    core->stats.in_flight_micros_total += result.in_flight_micros;
  }
  if (notify && r.on_result) {
    core->notifications.push_back(std::move(r.on_result));
  }
  core->results[reg->first] = std::move(result);
  core->unresolved.erase(reg);
  ++core->completion_seq;
  --core->outstanding;
}

void ReqPump::EndCallLocked(Core* core, CallIt call, bool answer) {
  CallMeta& m = call->second;
  if (!m.key.empty()) {
    if (answer) {
      // Registrations with its key join the answer from now on, until
      // the last copy of it is taken (TakeLocked).
      m.dest->keyed.at(m.key).holders = m.joiners;
      for (CallId joiner : m.joiners) {
        core->held.try_emplace(joiner, m.dest, m.key);
      }
    } else {
      m.dest->keyed.erase(m.key);
    }
  }
  core->calls.erase(call);
}

CallResult ReqPump::TakeLocked(Core* core, ResultIt it) {
  CallResult out = std::move(it->second);
  if (auto held = core->held.find(it->first); held != core->held.end()) {
    auto& [dest, key] = held->second;
    auto keyed = dest->keyed.find(key);
    std::vector<CallId>& holders = keyed->second.holders;
    holders.erase(std::find(holders.begin(), holders.end(), it->first));
    if (holders.empty()) dest->keyed.erase(keyed);
    core->held.erase(held);
  }
  core->results.erase(it);
  return out;
}

int64_t ReqPump::LatestDeadlineLocked(const Core& core,
                                      const CallMeta& call) {
  int64_t latest = 0;
  for (CallId joiner : call.joiners) {
    const int64_t deadline = core.unresolved.at(joiner).deadline_micros;
    if (deadline == 0) return 0;
    latest = std::max(latest, deadline);
  }
  return latest;
}

void ReqPump::LearnLocked(Destination* destination, const Status& status,
                          bool as_probe) {
  if (!destination->breaker) return;  // breakers are off
  if (status.ok()) {
    destination->breaker->RecordSuccess(as_probe);
  } else {
    destination->breaker->RecordFailure(status, as_probe);
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
    // A queued call is unresolved: resolving it removes it from here.
    auto call = core->calls.find(it->id);
    const CallMeta& m = call->second;
    if (!CanDispatchLocked(*core, it->hedge_cause != nullptr ? *m.hedge_dest
                                                             : *m.dest)) {
      ++it;
      continue;
    }
    QueuedCall queued = std::move(*it);
    it = core->queue.erase(it);
    switch (StartLocked(core, call, &queued, now)) {
      case Start::kStarted:
        out.push_back(std::move(queued));
        break;
      case Start::kWaiting:  // its failover waits in its place
        it = std::next(core->queue.insert(it, std::move(queued)));
        break;
      case Start::kResolved:
        break;
    }
  }
  return out;
}

void ReqPump::TimerLoop(std::shared_ptr<Core> core) {
  MutexLock lock(&core->mu);
  for (;;) {
    // Notifications run outside the lock, those still queued at
    // shutdown too (their calls resolved).
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
    // Drop stale heap entries so they don't force pointless wakeups.
    while (!core->deadlines.empty() &&
           StaleLocked(*core, core->deadlines.top())) {
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
    if (StaleLocked(*core, d)) continue;

    if (d.kind == Deadline::Kind::kHedge) {
      // Only a call still out on its first dispatch is hedged.
      auto call = core->calls.find(d.id);
      if (call->second.phase != Phase::kInFlight ||
          call->second.attempts != 1) {
        continue;
      }
      std::optional<QueuedCall> hedge = StartHedgeLocked(core.get(), call);
      if (!hedge) continue;
      lock.Unlock();
      Dispatch(core, std::move(*hedge));
      lock.Lock();
      continue;
    }
    std::vector<QueuedCall> to_dispatch;
    if (d.kind == Deadline::Kind::kRetry) {
      // The backoff is over: the call queues for a slot again, unless
      // every registration's deadline passed meanwhile — their own
      // entries, due now too, resolve them.
      CallMeta& m = core->calls.at(d.id);
      const int64_t deadline = LatestDeadlineLocked(*core, m);
      if (deadline > 0 && now >= deadline) continue;
      m.phase = Phase::kQueued;
      core->queue.push_back(
          QueuedCall{d.id, std::move(d.destination), std::move(m.fn),
                     m.query_id});
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
    auto reg = core->unresolved.find(d.id);
    const uint64_t query_id = reg->second.query_id;
    const CallId call = reg->second.call;
    const Phase phase = ResolveEarlyLocked(
        core.get(), reg,
        CallResult{Status::DeadlineExceeded("external call to '" +
                                            d.destination +
                                            "' exceeded its deadline"),
                   {}},
        /*notify=*/true, &to_dispatch);
    const int64_t in_flight_micros = core->results[d.id].in_flight_micros;
    // A dispatch that other registrations still wait on goes on.
    const bool abandoned = core->calls.count(call) == 0;
    lock.Unlock();
    FlightRecorder::Global()->Record(
        FrEventType::kCallTimeout, d.destination,
        phase == Phase::kQueued     ? "expired_in_queue"
        : phase == Phase::kBackoff ? "expired_in_backoff"
        : abandoned                ? "abandoned"
                                   : "joiner_expired",
        query_id, static_cast<int64_t>(d.id), in_flight_micros);
    core->cv.NotifyAll();
    DispatchAll(core, &to_dispatch);
    lock.Lock();
  }
}

ReqPump::Phase ReqPump::ResolveEarlyLocked(
    Core* core, RegistrationIt reg, CallResult result, bool notify,
    std::vector<QueuedCall>* to_dispatch) {
  const CallId id = reg->first;
  auto call = core->calls.find(reg->second.call);
  CallMeta& m = call->second;
  const Phase phase = m.phase;
  StoreResultLocked(core, reg, m, std::move(result), notify, NowMicros());
  m.joiners.erase(std::find(m.joiners.begin(), m.joiners.end(), id));
  if (!m.joiners.empty()) return phase;  // the others still wait on it
  // Abandon each dispatch still out and free its limit slot now, so the
  // queue behind a hung destination keeps moving; its real completion,
  // if one ever arrives, only teaches its breaker.
  const bool hedge_out = m.hedge == HedgePhase::kInFlight;
  if (hedge_out) AbandonLocked(core, call, /*hedge=*/true);
  if (phase == Phase::kQueued || m.hedge == HedgePhase::kQueued) {
    // Its own dispatch or its failover waits in the queue.
    auto queued = std::find_if(
        core->queue.begin(), core->queue.end(),
        [&call](const QueuedCall& q) { return q.id == call->first; });
    if (queued != core->queue.end()) core->queue.erase(queued);
  }
  if (phase == Phase::kInFlight) {
    AbandonLocked(core, call, /*hedge=*/false);
  } else if (phase != Phase::kFailed && m.attempts > 0) {
    // Not in flight, so no straggler is coming. A retried call ends
    // with its last failed attempt, which the breaker learns now.
    LearnLocked(m.dest, m.last_failure, m.as_probe);
  }
  EndCallLocked(core, call, /*answer=*/false);
  if (phase == Phase::kInFlight || hedge_out) {
    for (QueuedCall& queued : TakeDispatchableLocked(core)) {
      to_dispatch->push_back(std::move(queued));
    }
  }
  return phase;
}

void ReqPump::CancelLocked(Core* core, RegistrationIt reg,
                           std::vector<QueuedCall>* to_dispatch) {
  ++core->stats.cancelled;
  FlightRecorder::Global()->Record(
      FrEventType::kCallCancel, core->calls.at(reg->second.call).destination,
      "", reg->second.query_id, static_cast<int64_t>(reg->first));
  ResolveEarlyLocked(
      core, reg, CallResult{Status::Cancelled("external call cancelled"), {}},
      /*notify=*/false, to_dispatch);
}

bool ReqPump::CancelCall(CallId id) {
  std::vector<QueuedCall> to_dispatch;
  {
    MutexLock lock(&core_->mu);
    auto reg = core_->unresolved.find(id);
    if (reg == core_->unresolved.end()) return false;
    CancelLocked(core_.get(), reg, &to_dispatch);
  }
  core_->cv.NotifyAll();
  DispatchAll(core_, &to_dispatch);
  return true;
}

size_t ReqPump::CancelAndTake(std::span<const CallId> calls) {
  size_t cancelled = 0;
  std::vector<QueuedCall> to_dispatch;
  {
    MutexLock lock(&core_->mu);
    for (auto it = calls.rbegin(); it != calls.rend(); ++it) {
      if (auto reg = core_->unresolved.find(*it);
          reg != core_->unresolved.end()) {
        CancelLocked(core_.get(), reg, &to_dispatch);
        ++cancelled;
      }
      if (auto result = core_->results.find(*it);
          result != core_->results.end()) {
        TakeLocked(core_.get(), result);
      }
    }
  }
  if (cancelled > 0) core_->cv.NotifyAll();
  DispatchAll(core_, &to_dispatch);
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
  *out = TakeLocked(core_.get(), it);
  return true;
}

bool ReqPump::Peek(CallId id, CallResult* out) const {
  MutexLock lock(&core_->mu);
  auto it = core_->results.find(id);
  if (it == core_->results.end()) return false;
  *out = it->second;
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
    if (it != core->results.end()) return TakeLocked(core.get(), it);
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
  auto it = core_->destinations.find(destination);
  if (it == core_->destinations.end()) return std::nullopt;
  return it->second.breaker;
}

const Histogram* ReqPump::latency_histogram(
    const std::string& destination) {
  Histogram* latency = LatencyHistogram(destination);
  MutexLock lock(&core_->mu);
  return AddDestinationLocked(core_.get(), destination, latency)->latency;
}

size_t ReqPump::pending_results() const {
  MutexLock lock(&core_->mu);
  return core_->results.size();
}

}  // namespace wsq
