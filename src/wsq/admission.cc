#include "wsq/admission.h"

#include <algorithm>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace wsq {

namespace {
/// Queued queries re-check their token at this quantum, mirroring the
/// ReqPump's cancellation poll, so a cancelled query leaves the queue
/// promptly even if no slot frees up.
constexpr int64_t kCancelPollMicros = 5000;
}  // namespace

AdmissionController::AdmissionController(AdmissionLimits limits)
    : limits_(limits) {
  collector_id_ = MetricsRegistry::Global()->AddCollector(
      [this](MetricsEmitter* emitter) {
        AdmissionStats s;
        int active;
        int queued;
        {
          MutexLock lock(&mu_);
          s = stats_;
          active = active_;
          queued = queued_;
        }
        emitter->EmitCounter("wsq_admission_admitted_total",
                             "Queries granted an execution slot", {},
                             s.admitted);
        emitter->EmitCounter("wsq_admission_shed_queue_full_total",
                             "Arrivals shed: admission queue full", {},
                             s.shed_queue_full);
        emitter->EmitCounter("wsq_admission_shed_timeout_total",
                             "Queued queries shed: wait bound exceeded", {},
                             s.shed_timeout);
        emitter->EmitCounter(
            "wsq_admission_shed_cancelled_total",
            "Queued queries shed: cancelled/deadline while waiting", {},
            s.shed_cancelled);
        emitter->EmitGauge("wsq_admission_active",
                           "Queries executing right now", {}, active);
        emitter->EmitGauge("wsq_admission_queued",
                           "Queries waiting for an execution slot", {},
                           queued);
        emitter->EmitGauge("wsq_admission_active_peak",
                           "Peak concurrently executing queries", {},
                           static_cast<int64_t>(s.active_peak));
        emitter->EmitGauge("wsq_admission_queued_peak",
                           "Peak queries waiting for an execution slot", {},
                           static_cast<int64_t>(s.queued_peak));
      });
}

AdmissionController::~AdmissionController() {
  MetricsRegistry::Global()->RemoveCollector(collector_id_);
}

void AdmissionController::Ticket::Release() {
  if (controller_ == nullptr) return;
  controller_->Release();
  controller_ = nullptr;
}

void AdmissionController::Release() {
  MutexLock lock(&mu_);
  --active_;
  cv_.NotifyAll();
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    const CancellationToken* token) {
  MutexLock lock(&mu_);
  if (limits_.max_concurrent_queries <= 0 ||
      active_ < limits_.max_concurrent_queries) {
    ++active_;
    ++stats_.admitted;
    stats_.active_peak =
        std::max(stats_.active_peak, static_cast<uint64_t>(active_));
    return Ticket(this);
  }

  // All slots busy. Shed immediately if the wait queue is full (or
  // queueing is disabled), else join it for a bounded wait.
  if (queued_ >= limits_.max_queued) {
    ++stats_.shed_queue_full;
    FlightRecorder::Global()->Record(FrEventType::kAdmissionShed,
                                     "admission", "queue_full",
                                     /*query_id=*/0, queued_);
    return Status::ResourceExhausted(
        "server overloaded: admission queue is full");
  }
  ++queued_;
  stats_.queued_peak =
      std::max(stats_.queued_peak, static_cast<uint64_t>(queued_));
  const int64_t wait_start_micros = NowMicros();
  FlightRecorder::Global()->Record(FrEventType::kAdmissionWait, "admission",
                                   "slots_busy", /*query_id=*/0, queued_);
  const int64_t wait_deadline =
      limits_.max_queue_wait_micros > 0
          ? NowMicros() + limits_.max_queue_wait_micros
          : 0;
  Status shed = Status::OK();
  while (active_ >= limits_.max_concurrent_queries) {
    if (token != nullptr) {
      Status alive = token->CheckAlive();
      if (!alive.ok()) {
        ++stats_.shed_cancelled;
        shed = alive;
        break;
      }
    }
    int64_t wait = kCancelPollMicros;
    if (wait_deadline > 0) {
      int64_t remaining = wait_deadline - NowMicros();
      if (remaining <= 0) {
        ++stats_.shed_timeout;
        shed = Status::ResourceExhausted(
            "server overloaded: no execution slot freed within the "
            "admission wait bound");
        break;
      }
      wait = std::min(wait, remaining);
    }
    cv_.WaitForMicros(mu_, wait);
  }
  --queued_;
  if (!shed.ok()) {
    FlightRecorder::Global()->Record(
        FrEventType::kAdmissionShed, "admission",
        shed.code() == StatusCode::kResourceExhausted ? "wait_timeout"
                                                      : "cancelled",
        /*query_id=*/0, NowMicros() - wait_start_micros);
    return shed;
  }
  ++active_;
  ++stats_.admitted;
  stats_.active_peak =
      std::max(stats_.active_peak, static_cast<uint64_t>(active_));
  return Ticket(this);
}

AdmissionStats AdmissionController::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

int AdmissionController::active() const {
  MutexLock lock(&mu_);
  return active_;
}

int AdmissionController::queued() const {
  MutexLock lock(&mu_);
  return queued_;
}

}  // namespace wsq
