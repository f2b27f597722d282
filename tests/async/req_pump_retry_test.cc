#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "async/req_pump.h"
#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

// The call lifecycle ReqPump owns beyond dispatch: retries of transient
// failures as re-dispatches after a seeded backoff (Limits::retry) and
// the per-destination circuit breaker (Limits::breaker). Every case
// ends with the pump ledger balanced.

namespace wsq {
namespace {

void ExpectLedgerBalanced(const ReqPump& pump) {
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.registered, s.completed + s.cancelled + s.shed);
  EXPECT_EQ(pump.pending_results(), 0u);
}

/// Completes inline: the first `failures` invocations with `failure`,
/// later ones OK with one row. Counts invocations.
AsyncCallFn FlakyCall(std::atomic<int>* calls, int failures,
                      Status failure = Status::IOError("engine blip")) {
  return [=](CallCompletion done) {
    if (calls->fetch_add(1) < failures) {
      done(CallResult{failure, {}});
    } else {
      done(CallResult{Status::OK(), {Row({Value::Int(7)})}});
    }
  };
}

/// Every invocation fails with `failure`, inline.
AsyncCallFn FailingCall(std::atomic<int>* calls,
                        Status failure = Status::Unavailable("down")) {
  return FlakyCall(calls, 1 << 30, std::move(failure));
}

ReqPump::Limits RetryLimits(int attempts, int64_t initial_backoff_micros,
                            uint64_t seed = 1) {
  ReqPump::Limits limits;
  limits.retry = {attempts, initial_backoff_micros, seed};
  return limits;
}

/// A breaker that trips after `threshold` consecutive failures.
CircuitBreakerOptions Breaker(int threshold) {
  CircuitBreakerOptions options;
  options.failure_threshold = threshold;
  return options;
}

TEST(ReqPumpRetryTest, HealthyCallIsDispatchedOnce) {
  ReqPump pump(RetryLimits(3, 500));
  std::atomic<int> calls{0};
  CallResult r = pump.TakeBlocking(pump.Register("x", FlakyCall(&calls, 0)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(pump.stats().dispatched, 1u);
  EXPECT_EQ(pump.stats().retried, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, RecoversFromTransientFailures) {
  ReqPump pump(RetryLimits(3, 500));
  std::atomic<int> calls{0};
  const uint64_t qid = 991001;
  CallId id;
  {
    QueryIdBinding bind(qid);
    id = pump.Register("x", FlakyCall(&calls, 2));
  }
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(calls.load(), 3);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.dispatched, 1u);
  EXPECT_EQ(s.retried, 2u);
  EXPECT_EQ(s.failed, 0u);
  ExpectLedgerBalanced(pump);
  // Each re-dispatch is logged as a dispatch with cause "retry".
  int retry_dispatches = 0;
  for (const FrEvent& e : FlightRecorder::Global()->EventsForQuery(qid)) {
    if (e.type == FrEventType::kCallDispatch && e.cause == "retry") {
      EXPECT_EQ(e.a, static_cast<int64_t>(id));
      ++retry_dispatches;
    }
  }
  EXPECT_EQ(retry_dispatches, 2);
}

TEST(ReqPumpRetryTest, GivesUpAfterMaxAttempts) {
  ReqPump pump(RetryLimits(3, 500));
  std::atomic<int> calls{0};
  CallResult r = pump.TakeBlocking(
      pump.Register("x", FailingCall(&calls, Status::IOError("down"))));
  EXPECT_EQ(r.status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(pump.stats().retried, 2u);
  EXPECT_EQ(pump.stats().failed, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, SingleAttemptPolicyNeverRetries) {
  ReqPump pump;  // the default policy: one attempt
  std::atomic<int> calls{0};
  CallResult r = pump.TakeBlocking(pump.Register("x", FlakyCall(&calls, 1)));
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(pump.stats().retried, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, JitteredBackoffRespectsDeterministicFloor) {
  // Floors of 15 ms then 30 ms; each draw lies in [floor, 3 * floor],
  // so two retries take at least 45 ms.
  ReqPump pump(RetryLimits(3, 15000));
  std::atomic<int> calls{0};
  Stopwatch timer;
  CallResult r = pump.TakeBlocking(pump.Register("x", FlakyCall(&calls, 2)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_GE(timer.ElapsedMicros(), 45000);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, ConcurrentCallsEachRetryIndependently) {
  // Eight failures shared by sixteen calls that each tolerate three.
  ReqPump pump(RetryLimits(4, 500));
  std::atomic<int> failures_left{8};
  auto fn = [&](CallCompletion done) {
    if (failures_left.fetch_sub(1) > 0) {
      done(CallResult{Status::IOError("engine unavailable"), {}});
    } else {
      done(CallResult{Status::OK(), {}});
    }
  };
  std::vector<CallId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(pump.Register("x", fn));
  for (CallId id : ids) EXPECT_TRUE(pump.TakeBlocking(id).status.ok());
  EXPECT_EQ(pump.stats().retried, 8u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, NonTransientErrorsAreNotRetried) {
  ReqPump pump(RetryLimits(5, 50000));  // would be slow if retried
  std::atomic<int> calls{0};
  Stopwatch timer;
  CallResult r = pump.TakeBlocking(pump.Register(
      "x", FailingCall(&calls, Status::InvalidArgument("malformed"))));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_LT(timer.ElapsedMicros(), 50000);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(pump.stats().retried, 0u);
  EXPECT_EQ(pump.stats().failed, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, RetriesCountAgainstLimits) {
  // One slot for "x". A call in backoff frees it, so a later call
  // dispatches meanwhile; the retry then queues behind it.
  ReqPump::Limits limits = RetryLimits(2, 20000);
  limits.max_per_destination = 1;
  ReqPump pump(limits);
  std::atomic<int> first_calls{0};
  CallId first = pump.Register("x", FlakyCall(&first_calls, 1));
  EXPECT_EQ(pump.in_flight(), 0);  // in backoff, slot released
  std::mutex mu;
  CallCompletion held;
  CallId second = pump.Register("x", [&](CallCompletion done) {
    std::lock_guard<std::mutex> lock(mu);
    held = std::move(done);
  });
  EXPECT_EQ(pump.in_flight(), 1);
  EXPECT_EQ(pump.stats().dispatched, 2u);
  // Past the first call's longest backoff: its retry waits for the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(first_calls.load(), 1);
  EXPECT_FALSE(pump.IsComplete(first));
  CallCompletion done;
  {
    std::lock_guard<std::mutex> lock(mu);
    done = std::move(held);
  }
  done(CallResult{Status::OK(), {}});
  EXPECT_TRUE(pump.TakeBlocking(second).status.ok());
  EXPECT_TRUE(pump.TakeBlocking(first).status.ok());
  EXPECT_EQ(first_calls.load(), 2);
  EXPECT_EQ(pump.stats().max_in_flight, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, CancelDuringBackoffResolvesCancelled) {
  ReqPump pump(RetryLimits(3, 20000));
  std::atomic<int> calls{0};
  CallId id = pump.Register("x", FailingCall(&calls));
  ASSERT_EQ(calls.load(), 1);  // failed inline; now in backoff
  ASSERT_TRUE(pump.CancelCall(id));
  EXPECT_EQ(pump.TakeBlocking(id).status.code(), StatusCode::kCancelled);
  // Past the longest first backoff (3 * 20 ms): no attempt follows.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(pump.stats().retried, 0u);
  EXPECT_EQ(pump.stats().cancelled, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, DeadlineInsideBackoffResolvesDeadlineExceeded) {
  // The 40 ms floor ends before the 60 ms deadline, so the backoff is
  // taken; seed 4's first draw is ~102 ms, so the deadline falls inside
  // it.
  ReqPump pump(RetryLimits(3, 40000, /*seed=*/4));
  std::atomic<int> calls{0};
  Stopwatch timer;
  CallId id = pump.Register("x", FailingCall(&calls), 60000);
  CallResult r = pump.TakeBlocking(id);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(timer.ElapsedMicros(), 55000);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(calls.load(), 1);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.retried, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, BackoffPastDeadlineIsNotTaken) {
  // A 100 ms floor cannot end before the 50 ms deadline: the call
  // resolves at once with its own failure instead of timing out.
  ReqPump pump(RetryLimits(3, 100000));
  std::atomic<int> calls{0};
  Stopwatch timer;
  CallResult r =
      pump.TakeBlocking(pump.Register("x", FailingCall(&calls), 50000));
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_LT(timer.ElapsedMicros(), 50000);
  EXPECT_EQ(calls.load(), 1);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.retried, 0u);
  EXPECT_EQ(s.timed_out, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpRetryTest, ShutdownDuringBackoffDoesNotWaitItOut) {
  const uint64_t qid = 991002;
  std::atomic<int> calls{0};
  CallId id;
  Stopwatch timer;
  {
    ReqPump pump(RetryLimits(3, 500000));
    QueryIdBinding bind(qid);
    id = pump.Register("x", FailingCall(&calls));
    ASSERT_EQ(calls.load(), 1);  // in a backoff of at least 500 ms
  }
  EXPECT_LT(timer.ElapsedMicros(), 250000);
  EXPECT_EQ(calls.load(), 1);  // the timer thread is gone: no retry
  // The call resolved kCancelled at shutdown, as its timeline shows.
  int cancels = 0;
  for (const FrEvent& e : FlightRecorder::Global()->EventsForQuery(qid)) {
    if (e.type == FrEventType::kCallCancel) {
      EXPECT_EQ(e.cause, "shutdown");
      EXPECT_EQ(e.a, static_cast<int64_t>(id));
      ++cancels;
    }
  }
  EXPECT_EQ(cancels, 1);
}

/// Parks each invocation's completion for the test to deliver later.
class ParkedCalls {
 public:
  AsyncCallFn Fn() {
    return [this](CallCompletion done) {
      std::lock_guard<std::mutex> lock(mu_);
      held_.push_back(std::move(done));
    };
  }
  size_t invocations() {
    std::lock_guard<std::mutex> lock(mu_);
    return invocations_ + held_.size();
  }
  /// Completes every parked call with `result`, outside the lock.
  void DeliverAll(const CallResult& result) {
    std::vector<CallCompletion> held;
    {
      std::lock_guard<std::mutex> lock(mu_);
      held.swap(held_);
      invocations_ += held.size();
    }
    for (CallCompletion& done : held) done(result);
  }

 private:
  std::mutex mu_;
  std::vector<CallCompletion> held_;
  size_t invocations_ = 0;
};

TEST(ReqPumpRetryTest, AbandonedCallsLateTransientFailureIsNotRetried) {
  ReqPump pump(RetryLimits(3, 1000));
  ParkedCalls parked;
  CallId timed = pump.Register("x", parked.Fn(), 20000);
  CallId cancelled = pump.Register("x", parked.Fn(), 0);
  EXPECT_EQ(pump.TakeBlocking(timed).status.code(),
            StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(pump.CancelCall(cancelled));
  EXPECT_EQ(pump.TakeBlocking(cancelled).status.code(),
            StatusCode::kCancelled);
  // Both engines answer late, with transient failures.
  parked.DeliverAll(CallResult{Status::Unavailable("late"), {}});
  // Past any backoff (at most 3 ms): nothing was re-dispatched.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(parked.invocations(), 2u);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.late_discarded, 2u);
  EXPECT_EQ(s.retried, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpBreakerTest, TrippedBreakerRejectsWithoutDispatch) {
  // Three attempts with a 200 ms backoff floor, and a breaker that
  // trips on one failure.
  ReqPump::Limits limits = RetryLimits(3, 200000);
  limits.breaker = Breaker(1);
  ReqPump pump(limits);
  std::atomic<int> calls{0};
  // The floor cannot end before this call's 100 ms deadline, so it
  // fails at once, and its failure trips the breaker.
  CallResult first =
      pump.TakeBlocking(pump.Register("x", FailingCall(&calls), 100000));
  EXPECT_EQ(first.status.code(), StatusCode::kUnavailable);
  ASSERT_EQ(pump.breaker("x")->state(), CircuitState::kOpen);

  Stopwatch timer;
  CallResult r = pump.TakeBlocking(pump.Register("x", FailingCall(&calls)));
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_LT(timer.ElapsedMicros(), 100000);  // well under the backoff
  EXPECT_EQ(calls.load(), 1);                // its fn never ran
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.dispatched, 1u);  // the first call only
  EXPECT_EQ(s.retried, 0u);
  EXPECT_EQ(pump.breaker("x")->stats().fast_failures, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpBreakerTest, ShieldsDestinationWhileOpenThenRecovers) {
  std::atomic<int64_t> now{0};
  ReqPump::Limits limits;
  limits.breaker = CircuitBreakerOptions{
      .failure_threshold = 3, .cooldown_micros = 1000, .now = [&] {
        return now.load();
      }};
  ReqPump pump(limits);
  std::atomic<bool> failing{true};
  std::atomic<int> served{0};
  auto backend = [&](CallCompletion done) {
    ++served;
    if (failing.load()) {
      done(CallResult{Status::Unavailable("scripted outage"), {}});
    } else {
      done(CallResult{Status::OK(), {}});
    }
  };
  auto call = [&] {
    return pump.TakeBlocking(pump.Register("AltaVista", backend));
  };
  // Three transient failures reach the destination and trip the circuit.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(call().status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(pump.breaker("AltaVista")->state(), CircuitState::kOpen);
  EXPECT_EQ(served.load(), 3);

  // While open, rejections are instant and the destination sees nothing.
  for (int i = 0; i < 5; ++i) {
    CallResult r = call();
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(IsTransient(r.status.code()));
  }
  EXPECT_EQ(served.load(), 3);
  EXPECT_EQ(pump.breaker("AltaVista")->stats().fast_failures, 5u);

  // The engine heals; after the cool-down one probe goes through and
  // closes the circuit for everyone.
  failing = false;
  now = 1000;
  EXPECT_TRUE(call().status.ok());
  EXPECT_EQ(pump.breaker("AltaVista")->state(), CircuitState::kClosed);
  EXPECT_TRUE(call().status.ok());
  EXPECT_EQ(served.load(), 5);
  ExpectLedgerBalanced(pump);
}

/// The value of `series` (name plus labels) in the metrics export; ""
/// when the export has no such series.
std::string Exported(const std::string& series) {
  const std::string text =
      "\n" + MetricsRegistry::Global()->ExportPrometheusText();
  const std::string line_start = "\n" + series + " ";
  size_t at = text.find(line_start);
  if (at == std::string::npos) return "";
  at += line_start.size();
  return text.substr(at, text.find('\n', at) - at);
}

TEST(ReqPumpBreakerTest, ExportShowsStateAndFailureStreak) {
  std::atomic<int64_t> now{0};
  ReqPump::Limits limits;
  limits.breaker = CircuitBreakerOptions{
      .failure_threshold = 3, .cooldown_micros = 1000, .now = [&] {
        return now.load();
      }};
  ReqPump pump(limits);
  const std::string dest = "breaker_export";
  const std::string labels = "{destination=\"breaker_export\"}";
  auto exported = [&](const char* name) { return Exported(name + labels); };
  std::atomic<int> calls{0};
  auto fail_once = [&] {
    return pump.TakeBlocking(pump.Register(dest, FailingCall(&calls)));
  };

  // Two transient failures: still closed, with a streak of two.
  for (int i = 0; i < 2; ++i) EXPECT_FALSE(fail_once().status.ok());
  EXPECT_EQ(exported("wsq_circuit_open"), "0");
  EXPECT_EQ(exported("wsq_circuit_half_open"), "0");
  EXPECT_EQ(exported("wsq_circuit_consecutive_failures"), "2");

  // The third trips it: open, and the streak starts over.
  EXPECT_FALSE(fail_once().status.ok());
  EXPECT_EQ(exported("wsq_circuit_open"), "1");
  EXPECT_EQ(exported("wsq_circuit_half_open"), "0");
  EXPECT_EQ(exported("wsq_circuit_consecutive_failures"), "0");
  EXPECT_EQ(exported("wsq_circuit_trips_total"), "1");

  // After the cool-down one probe goes out: half-open while it is out.
  now = 1000;
  ParkedCalls parked;
  CallId probe = pump.Register(dest, parked.Fn());
  EXPECT_EQ(parked.invocations(), 1u);
  EXPECT_EQ(exported("wsq_circuit_open"), "0");
  EXPECT_EQ(exported("wsq_circuit_half_open"), "1");
  EXPECT_EQ(exported("wsq_circuit_probes_total"), "1");

  // Its answer closes the circuit.
  parked.DeliverAll(CallResult{Status::OK(), {}});
  EXPECT_TRUE(pump.TakeBlocking(probe).status.ok());
  EXPECT_EQ(exported("wsq_circuit_open"), "0");
  EXPECT_EQ(exported("wsq_circuit_half_open"), "0");
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpBreakerTest, LearnsFinalOutcomesNotAttempts) {
  ReqPump::Limits limits = RetryLimits(3, 500);
  limits.breaker = Breaker(2);
  ReqPump pump(limits);
  std::atomic<int> calls{0};
  // Three failed attempts make one failed call: one strike, not three.
  EXPECT_FALSE(pump.TakeBlocking(pump.Register("x", FailingCall(&calls)))
                   .status.ok());
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(pump.breaker("x")->state(), CircuitState::kClosed);
  EXPECT_EQ(pump.breaker("x")->consecutive_failures(), 1);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpBreakerTest, LateOutcomeOfAbandonedCallTeachesBreaker) {
  ReqPump::Limits limits;
  limits.breaker = Breaker(1);
  ReqPump pump(limits);
  ParkedCalls parked;
  CallId id = pump.Register("x", parked.Fn(), 10000);
  EXPECT_EQ(pump.TakeBlocking(id).status.code(),
            StatusCode::kDeadlineExceeded);
  // The pump's own deadline is not the engine's answer...
  EXPECT_EQ(pump.breaker("x")->state(), CircuitState::kClosed);
  // ...but the late answer is.
  parked.DeliverAll(CallResult{Status::Unavailable("down"), {}});
  EXPECT_EQ(pump.breaker("x")->state(), CircuitState::kOpen);
  EXPECT_EQ(pump.stats().late_discarded, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpBreakerTest, BreakersAreOffByDefault) {
  ReqPump pump;
  std::atomic<int> calls{0};
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(
        pump.TakeBlocking(pump.Register("x", FailingCall(&calls))).status.ok());
  }
  EXPECT_EQ(calls.load(), 10);  // nothing failed fast
  EXPECT_FALSE(pump.breaker("x").has_value());
  ExpectLedgerBalanced(pump);
}

}  // namespace
}  // namespace wsq
