#ifndef WSQ_NET_CIRCUIT_BREAKER_H_
#define WSQ_NET_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace wsq {

/// Circuit breaker state (classic closed → open → half-open machine).
enum class CircuitState {
  kClosed,    ///< healthy: requests flow, consecutive failures counted
  kOpen,      ///< tripped: requests fail fast with kUnavailable
  kHalfOpen,  ///< cooling down: one probe request tests recovery
};

std::string_view CircuitStateToString(CircuitState state);

struct CircuitBreakerOptions {
  /// Consecutive transient failures that trip the circuit.
  int failure_threshold = 5;
  /// Time the circuit stays open before allowing a probe.
  int64_t cooldown_micros = 1000000;
  /// Clock override for deterministic tests; null = steady clock.
  std::function<int64_t()> now;
};

struct CircuitBreakerStats {
  /// closed/half-open → open transitions.
  uint64_t trips = 0;
  /// Requests rejected without reaching the engine (circuit open).
  uint64_t fast_failures = 0;
  /// Probe requests admitted while half-open.
  uint64_t probes = 0;
};

/// Per-destination circuit breaker: after `failure_threshold`
/// consecutive TRANSIENT failures (IsTransient) the circuit opens and
/// calls fail fast with kUnavailable instead of burning retries against
/// a dead engine; after `cooldown_micros` one probe request half-opens
/// it — success closes the circuit, another transient failure re-opens
/// it for a fresh cool-down. Non-transient errors (the engine answered,
/// just unhelpfully) neither count toward nor reset the failure streak.
///
/// A plain state machine, not thread-safe: ReqPump keeps one per
/// destination (ReqPump::Limits::breaker) and guards it with its lock.
class CircuitBreaker {
 public:
  /// `destination` labels the flight-recorder transition events.
  explicit CircuitBreaker(CircuitBreakerOptions options = {},
                          std::string destination = "");

  /// True if a request may be sent now; false = fail fast. Sets
  /// `*as_probe` to whether THIS admission is the half-open probe.
  /// Callers thread that flag back into RecordSuccess/RecordFailure so
  /// the single probe slot is released by the probe's own outcome —
  /// not wedged by it (a probe answering with a non-transient error)
  /// and not stolen by stale completions from before the trip.
  bool Allow(bool* as_probe);

  /// Record the outcome of an admitted request.
  void RecordSuccess(bool was_probe);
  void RecordFailure(const Status& status, bool was_probe);

  CircuitState state() const { return state_; }
  const CircuitBreakerStats& stats() const { return stats_; }
  int consecutive_failures() const { return consecutive_failures_; }

 private:
  int64_t Now() const;
  void Trip(int64_t now);

  CircuitBreakerOptions options_;
  std::string destination_;
  CircuitState state_ = CircuitState::kClosed;
  int consecutive_failures_ = 0;
  bool probe_outstanding_ = false;
  int64_t open_until_micros_ = 0;
  CircuitBreakerStats stats_;
};

}  // namespace wsq

#endif  // WSQ_NET_CIRCUIT_BREAKER_H_
