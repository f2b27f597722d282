#include "net/circuit_breaker.h"

#include "common/clock.h"
#include "obs/flight_recorder.h"

namespace wsq {

std::string_view CircuitStateToString(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed:
      return "Closed";
    case CircuitState::kOpen:
      return "Open";
    case CircuitState::kHalfOpen:
      return "HalfOpen";
  }
  return "Unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options,
                               std::string destination)
    : options_(std::move(options)), destination_(std::move(destination)) {
  if (options_.failure_threshold < 1) options_.failure_threshold = 1;
}

int64_t CircuitBreaker::Now() const {
  return options_.now ? options_.now() : NowMicros();
}

void CircuitBreaker::Trip(int64_t now) {
  FlightRecorder::Global()->Record(
      FrEventType::kBreakerTrip, destination_,
      state_ == CircuitState::kHalfOpen ? "probe_failed"
                                        : "failure_threshold",
      /*query_id=*/0, consecutive_failures_);
  state_ = CircuitState::kOpen;
  open_until_micros_ = now + options_.cooldown_micros;
  probe_outstanding_ = false;
  consecutive_failures_ = 0;
  ++stats_.trips;
}

bool CircuitBreaker::Allow(bool* as_probe) {
  *as_probe = false;
  const int64_t now = Now();
  if (state_ == CircuitState::kOpen) {
    if (now < open_until_micros_) {
      ++stats_.fast_failures;
      return false;
    }
    state_ = CircuitState::kHalfOpen;
    probe_outstanding_ = false;
  }
  if (state_ == CircuitState::kHalfOpen) {
    if (probe_outstanding_) {
      // A probe whose outcome never arrives (hung engine, dropped
      // callback) must not wedge the circuit half-open forever: admit a
      // fresh probe once a full cool-down has passed since the last.
      if (now < open_until_micros_ + options_.cooldown_micros) {
        ++stats_.fast_failures;
        return false;
      }
      open_until_micros_ = now;
    }
    probe_outstanding_ = true;
    ++stats_.probes;
    FlightRecorder::Global()->Record(FrEventType::kBreakerProbe,
                                     destination_, "cooldown_elapsed");
    *as_probe = true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(bool was_probe) {
  consecutive_failures_ = 0;
  if (state_ == CircuitState::kHalfOpen && was_probe) {
    // The probe succeeded: the engine is back. A non-probe success in
    // half-open (a straggler from before the trip) is NOT evidence the
    // engine recovered and must not close the circuit.
    state_ = CircuitState::kClosed;
    probe_outstanding_ = false;
    FlightRecorder::Global()->Record(FrEventType::kBreakerClose,
                                     destination_, "probe_ok");
  }
}

void CircuitBreaker::RecordFailure(const Status& status, bool was_probe) {
  if (!IsTransient(status.code())) {
    // The engine answered (badly): neutral for the failure streak. But
    // if this was the half-open probe, its slot must be released or the
    // gate stays wedged until the stale-probe escape — blocking real
    // probes for a whole extra cool-down.
    if (was_probe && state_ == CircuitState::kHalfOpen) {
      probe_outstanding_ = false;
    }
    return;
  }
  const int64_t now = Now();
  if (state_ == CircuitState::kHalfOpen) {
    // A non-probe transient failure in half-open is stale evidence from
    // before the trip; the probe's own outcome decides the state.
    if (was_probe) Trip(now);  // probe failed: back to open
    return;
  }
  if (state_ == CircuitState::kClosed &&
      ++consecutive_failures_ >= options_.failure_threshold) {
    Trip(now);
  }
}

}  // namespace wsq
