#include "net/circuit_breaker.h"

#include <gtest/gtest.h>

namespace wsq {
namespace {

/// Manually-advanced clock for deterministic cool-down tests.
struct FakeClock {
  int64_t now = 0;
  std::function<int64_t()> fn() {
    return [this] { return now; };
  }
};

CircuitBreakerOptions OptionsWithClock(FakeClock* clock,
                                       int threshold = 3,
                                       int64_t cooldown = 1000) {
  CircuitBreakerOptions options;
  options.failure_threshold = threshold;
  options.cooldown_micros = cooldown;
  options.now = clock->fn();
  return options;
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveTransientFailures) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock));
  bool probe = true;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow(&probe));
    ASSERT_FALSE(probe);
    breaker.RecordFailure(Status::Unavailable("down"), probe);
    EXPECT_EQ(breaker.state(), CircuitState::kClosed) << i;
  }
  ASSERT_TRUE(breaker.Allow(&probe));
  breaker.RecordFailure(Status::Unavailable("down"), probe);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1u);
}

TEST(CircuitBreakerTest, OpenCircuitFailsFast) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock));
  for (int i = 0; i < 3; ++i) {
    breaker.RecordFailure(Status::DeadlineExceeded("slow"), false);
  }
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);
  bool probe = true;
  EXPECT_FALSE(breaker.Allow(&probe));
  EXPECT_FALSE(probe);
  EXPECT_FALSE(breaker.Allow(&probe));
  EXPECT_EQ(breaker.stats().fast_failures, 2u);
}

TEST(CircuitBreakerTest, NonTransientErrorsNeitherCountNorReset) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock));
  breaker.RecordFailure(Status::Unavailable("down"), false);
  breaker.RecordFailure(Status::Unavailable("down"), false);
  // The engine answered (badly): not evidence it is unreachable.
  breaker.RecordFailure(Status::InvalidArgument("bad query"), false);
  EXPECT_EQ(breaker.consecutive_failures(), 2);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  // The streak survives the non-transient error: one more trips.
  breaker.RecordFailure(Status::Unavailable("down"), false);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

TEST(CircuitBreakerTest, SuccessResetsTheStreak) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock));
  breaker.RecordFailure(Status::Unavailable("down"), false);
  breaker.RecordFailure(Status::Unavailable("down"), false);
  breaker.RecordSuccess(false);
  breaker.RecordFailure(Status::Unavailable("down"), false);
  breaker.RecordFailure(Status::Unavailable("down"), false);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 2);
}

TEST(CircuitBreakerTest, CooldownAdmitsOneProbe) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock, 3, 1000));
  for (int i = 0; i < 3; ++i) {
    breaker.RecordFailure(Status::Unavailable("down"), false);
  }
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);
  bool probe = false;
  EXPECT_FALSE(breaker.Allow(&probe));

  clock.now = 1000;  // cool-down elapsed
  EXPECT_TRUE(breaker.Allow(&probe));  // the probe
  EXPECT_TRUE(probe);
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(&probe));  // only one probe at a time
  EXPECT_FALSE(probe);
  EXPECT_EQ(breaker.stats().probes, 1u);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesTheCircuit) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock, 3, 1000));
  for (int i = 0; i < 3; ++i) {
    breaker.RecordFailure(Status::Unavailable("down"), false);
  }
  clock.now = 1500;
  bool probe = false;
  ASSERT_TRUE(breaker.Allow(&probe));
  ASSERT_TRUE(probe);
  breaker.RecordSuccess(probe);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_TRUE(breaker.Allow(&probe));
  EXPECT_FALSE(probe);  // closed: no more probes
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreakerTest, ProbeFailureReopensWithFreshCooldown) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock, 3, 1000));
  for (int i = 0; i < 3; ++i) {
    breaker.RecordFailure(Status::Unavailable("down"), false);
  }
  clock.now = 1200;
  bool probe = false;
  ASSERT_TRUE(breaker.Allow(&probe));
  ASSERT_TRUE(probe);
  breaker.RecordFailure(Status::Unavailable("still down"), probe);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2u);
  EXPECT_FALSE(breaker.Allow(&probe));  // fresh cool-down from 1200
  clock.now = 2199;
  EXPECT_FALSE(breaker.Allow(&probe));
  clock.now = 2200;
  EXPECT_TRUE(breaker.Allow(&probe));  // next probe
  EXPECT_TRUE(probe);
}

TEST(CircuitBreakerTest, NonTransientProbeOutcomeReleasesTheGate) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock, 3, 1000));
  for (int i = 0; i < 3; ++i) {
    breaker.RecordFailure(Status::Unavailable("down"), false);
  }
  clock.now = 1000;
  bool as_probe = false;
  ASSERT_TRUE(breaker.Allow(&as_probe));
  ASSERT_TRUE(as_probe);
  // The probe came back with a non-transient error: the engine is
  // reachable but the query is bad. That neither closes nor re-trips —
  // but it MUST release the single probe slot, or the circuit wedges
  // half-open until the stale-probe escape a full cool-down later.
  breaker.RecordFailure(Status::ExecutionError("bad query"), true);
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  EXPECT_TRUE(breaker.Allow(&as_probe));  // fresh probe, immediately
  EXPECT_TRUE(as_probe);
  breaker.RecordSuccess(true);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

TEST(CircuitBreakerTest, StragglerSuccessDoesNotCloseHalfOpen) {
  FakeClock clock;
  CircuitBreaker breaker(OptionsWithClock(&clock, 3, 1000));
  // A slow call dispatched before the trip is still in flight...
  bool pre_trip_probe = false;
  ASSERT_TRUE(breaker.Allow(&pre_trip_probe));
  ASSERT_FALSE(pre_trip_probe);  // closed: not a probe
  for (int i = 0; i < 3; ++i) {
    breaker.RecordFailure(Status::Unavailable("down"), false);
  }
  clock.now = 1000;
  bool as_probe = false;
  ASSERT_TRUE(breaker.Allow(&as_probe));  // the real probe
  ASSERT_TRUE(as_probe);
  // ...and its success lands while the probe is outstanding. Stale
  // evidence from before the outage must not close the circuit.
  breaker.RecordSuccess(false);
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  // Nor may a stale transient failure re-trip it under the probe.
  breaker.RecordFailure(Status::Unavailable("stale"), false);
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  // The probe's own verdict decides.
  breaker.RecordSuccess(true);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_EQ(CircuitStateToString(CircuitState::kClosed), "Closed");
  EXPECT_EQ(CircuitStateToString(CircuitState::kOpen), "Open");
  EXPECT_EQ(CircuitStateToString(CircuitState::kHalfOpen), "HalfOpen");
}

}  // namespace
}  // namespace wsq
