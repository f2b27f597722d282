#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "async/req_pump.h"
#include "common/clock.h"
#include "common/random.h"
#include "obs/flight_recorder.h"

// Hedged calls in ReqPump: a registration may name a hedge target. Once
// the call's first dispatch has been out for its destination's p95
// latency (taken from this pump's own completions, none before 50 of
// them, 1 ms at least) the pump sends the target once, if it has a free
// slot and its breaker admits it; a self-hedge waits until a later call
// at the destination has answered first. A failed call fails over to an
// alternate at once, queueing for a slot. The first OK answer resolves
// every joiner. Every case ends with the ledger balanced and ReqPumpHash
// empty again.

namespace wsq {
namespace {

void ExpectLedgerBalanced(const ReqPump& pump) {
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.registered, s.completed + s.cancelled + s.shed);
  EXPECT_EQ(pump.pending_results(), 0u);
}

CallResult Answer(int64_t v) {
  return CallResult{Status::OK(), {Row({Value::Int(v)})}};
}

AsyncCallFn Immediate(int64_t v) {
  return [v](CallCompletion done) { done(Answer(v)); };
}

/// Parks each invocation's completion for the test to deliver later.
class ParkedCalls {
 public:
  AsyncCallFn Fn() {
    return [this](CallCompletion done) {
      std::lock_guard<std::mutex> lock(mu_);
      held_.push_back(std::move(done));
      ++invocations_;
      cv_.notify_all();
    };
  }
  size_t invocations() {
    std::lock_guard<std::mutex> lock(mu_);
    return invocations_;
  }
  /// Blocks until `n` invocations have been made.
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return invocations_ >= n; });
  }
  /// Completes every parked call with `result`, outside the lock.
  void DeliverAll(const CallResult& result) {
    std::vector<CallCompletion> held;
    {
      std::lock_guard<std::mutex> lock(mu_);
      held.swap(held_);
    }
    for (CallCompletion& done : held) done(result);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<CallCompletion> held_;
  size_t invocations_ = 0;
};

/// Makes `n` completions at `destination` on `pump`, the first of which
/// answers after the others, sent 2 ms later: the destination has shown
/// that a later call can answer first. Each other call answers at once.
void Overtake(ReqPump* pump, const std::string& destination, int n) {
  ParkedCalls first;
  CallId overtaken = pump->Register(destination, first.Fn(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  for (int i = 1; i < n; ++i) {
    CallId id = pump->Register(destination, Immediate(0), 0);
    ASSERT_TRUE(pump->TakeBlocking(id).status.ok());
  }
  first.DeliverAll(Answer(0));
  ASSERT_TRUE(pump->TakeBlocking(overtaken).status.ok());
}

/// Gives `destination` a hedge delay on `pump`, enough for hedges to an
/// alternate: 50 instant answers make its p95 0, so the delay is the
/// 1 ms floor.
void WarmUp(ReqPump* pump, const std::string& destination) {
  for (int i = 0; i < 50; ++i) {
    CallId id = pump->Register(destination, Immediate(0), 0);
    ASSERT_TRUE(pump->TakeBlocking(id).status.ok());
  }
}

/// As WarmUp, self-hedges included: the first of the 50 answers is
/// overtaken by the other 49.
void WarmUpSelfHedges(ReqPump* pump, const std::string& destination) {
  Overtake(pump, destination, 50);
}

/// Registers `fn` against "x" with a hedge target.
CallId Hedged(ReqPump* pump, AsyncCallFn fn, HedgeTarget hedge,
              const std::string& key = {}, int64_t timeout_micros = 0,
              bool* joined = nullptr) {
  return pump->Register("x", std::move(fn), timeout_micros, nullptr, key,
                        joined, std::move(hedge));
}

/// Blocks until `destination`'s breaker has counted `n` failures in a
/// row, or opened.
void WaitForFailures(const ReqPump& pump, const std::string& destination,
                     int n) {
  for (;;) {  // bounded by the ctest timeout
    std::optional<CircuitBreaker> breaker = pump.breaker(destination);
    if (breaker && (breaker->consecutive_failures() >= n ||
                    breaker->state() == CircuitState::kOpen)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TEST(ReqPumpHedgeTest, NoHedgeBeforeFiftyCompletions) {
  ReqPump pump;
  Overtake(&pump, "x", 49);
  ParkedCalls primary;
  ParkedCalls hedge;
  CallId slow = Hedged(&pump, primary.Fn(), {"x", hedge.Fn()});
  // Forty times the 1 ms floor: no delay is known yet, so no hedge.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(hedge.invocations(), 0u);
  primary.DeliverAll(Answer(1));
  CallResult r = pump.TakeBlocking(slow);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.hedged);

  // That was the fiftieth completion: the next slow call is hedged.
  CallId next = Hedged(&pump, primary.Fn(), {"x", hedge.Fn()});
  hedge.WaitFor(1);
  hedge.DeliverAll(Answer(2));
  EXPECT_TRUE(pump.TakeBlocking(next).hedged);
  primary.DeliverAll(Answer(3));
  EXPECT_EQ(pump.stats().hedged, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, SlowCallIsHedgedOnceAndTheHedgeAnswers) {
  ReqPump pump;
  WarmUpSelfHedges(&pump, "x");
  ParkedCalls primary;
  ParkedCalls hedge;
  CallId id = Hedged(&pump, primary.Fn(), {"x", hedge.Fn()});
  hedge.WaitFor(1);
  // Once only, however long the primary stays out.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(hedge.invocations(), 1u);
  EXPECT_EQ(pump.in_flight(), 2);
  EXPECT_FALSE(pump.IsComplete(id));

  hedge.DeliverAll(Answer(7));
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 7);
  EXPECT_TRUE(r.hedged);
  EXPECT_TRUE(r.hedge_won);
  // The losing primary freed its slot at once; its answer is discarded.
  EXPECT_EQ(pump.in_flight(), 0);
  primary.DeliverAll(Answer(8));
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.hedged, 1u);
  EXPECT_EQ(s.hedge_wins, 1u);
  EXPECT_EQ(s.late_discarded, 1u);
  EXPECT_EQ(primary.invocations(), 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, HedgeWaitsForTheDestinationsP95) {
  // Fifty answers that each take 20 ms or more put the p95, and so the
  // hedge delay, at 20 ms at least. The first was sent 2 ms before the
  // others and answers last.
  ReqPump pump;
  ParkedCalls first;
  ParkedCalls warm;
  std::vector<CallId> ids{pump.Register("x", first.Fn(), 0)};
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  for (int i = 1; i < 50; ++i) ids.push_back(pump.Register("x", warm.Fn(), 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  warm.DeliverAll(Answer(0));
  first.DeliverAll(Answer(0));
  for (CallId id : ids) ASSERT_TRUE(pump.TakeBlocking(id).status.ok());

  std::atomic<int64_t> hedged_at{0};
  ParkedCalls primary;
  ParkedCalls hedge;
  AsyncCallFn park = hedge.Fn();
  const int64_t registered_at = NowMicros();
  CallId id = Hedged(&pump, primary.Fn(),
                     {"x", [&hedged_at, park](CallCompletion done) {
                        hedged_at = NowMicros();
                        park(std::move(done));
                      }});
  hedge.WaitFor(1);
  // The delay is the upper edge of the p95's bucket, clamped to the
  // latencies' maximum: never below the 20 ms they all took.
  EXPECT_GE(hedged_at.load() - registered_at, 20000);
  primary.DeliverAll(Answer(1));
  CallResult r = pump.TakeBlocking(id);
  EXPECT_TRUE(r.hedged);
  EXPECT_FALSE(r.hedge_won);
  hedge.DeliverAll(Answer(2));
  EXPECT_EQ(pump.stats().late_discarded, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, CallThatAnswersBeforeTheDelayIsNeverHedged) {
  ReqPump pump;
  WarmUpSelfHedges(&pump, "x");
  ParkedCalls hedge;
  std::vector<CallId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(Hedged(&pump, Immediate(i), {"x", hedge.Fn()}));
  }
  for (CallId id : ids) {
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.hedged);
  }
  // Their hedge times pass with nothing left to hedge.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(hedge.invocations(), 0u);
  EXPECT_EQ(pump.stats().hedged, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, SameKeyRegistrationsShareOneHedge) {
  ReqPump pump;
  WarmUpSelfHedges(&pump, "x");
  ParkedCalls primary;
  ParkedCalls hedge;
  ParkedCalls unused;
  bool joined = false;
  CallId a = Hedged(&pump, primary.Fn(), {"x", hedge.Fn()}, "k");
  CallId b = Hedged(&pump, primary.Fn(), {"x", unused.Fn()}, "k", 0, &joined);
  EXPECT_TRUE(joined);
  hedge.WaitFor(1);
  hedge.DeliverAll(Answer(5));
  for (CallId id : {a, b}) {
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.rows[0].value(0).AsInt(), 5);
    EXPECT_TRUE(r.hedged);
    EXPECT_TRUE(r.hedge_won);
  }
  primary.DeliverAll(Answer(6));
  EXPECT_EQ(primary.invocations(), 1u);
  EXPECT_EQ(unused.invocations(), 0u);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.dispatched, 51u);
  EXPECT_EQ(s.joined, 1u);
  EXPECT_EQ(s.hedged, 1u);
  EXPECT_EQ(s.hedge_wins, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, HedgeNeverQueuesOrPassesAQueuedCall) {
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  ReqPump pump(limits);
  WarmUp(&pump, "x");
  ParkedCalls at_y;
  ParkedCalls primary;
  ParkedCalls hedge;
  ParkedCalls queued;
  // A call holds the hedge target's only slot, and another waits for it.
  CallId holder = pump.Register("y", at_y.Fn(), 0);
  CallId waiting = pump.Register("y", queued.Fn(), 0);
  CallId slow = Hedged(&pump, primary.Fn(), {"y", hedge.Fn()});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // No slot, so no hedge: it neither queued nor went ahead of the call.
  EXPECT_EQ(hedge.invocations(), 0u);
  EXPECT_EQ(queued.invocations(), 0u);
  EXPECT_EQ(pump.in_flight(), 2);
  // The freed slot goes to the waiting call, not to the hedge.
  at_y.DeliverAll(Answer(0));
  EXPECT_TRUE(pump.TakeBlocking(holder).status.ok());
  queued.WaitFor(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(hedge.invocations(), 0u);
  primary.DeliverAll(Answer(1));
  EXPECT_FALSE(pump.TakeBlocking(slow).hedged);
  queued.DeliverAll(Answer(2));
  EXPECT_TRUE(pump.TakeBlocking(waiting).status.ok());
  EXPECT_EQ(pump.stats().hedged, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, FailedHedgeDoesNotFailACallWhosePrimaryIsOut) {
  ReqPump pump;
  WarmUpSelfHedges(&pump, "x");
  ParkedCalls primary;
  ParkedCalls hedge;
  CallId id = Hedged(&pump, primary.Fn(), {"x", hedge.Fn()});
  hedge.WaitFor(1);
  hedge.DeliverAll(CallResult{Status::Unavailable("hedge down"), {}});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(pump.IsComplete(id));
  EXPECT_EQ(pump.in_flight(), 1);
  primary.DeliverAll(Answer(3));
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 3);
  EXPECT_TRUE(r.hedged);
  EXPECT_FALSE(r.hedge_won);
  // A hedge is one attempt: the failed one was not sent again.
  EXPECT_EQ(hedge.invocations(), 1u);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.hedge_wins, 0u);
  EXPECT_EQ(s.failed, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, FailedPrimaryFailsOverToTheAlternateAtOnce) {
  // No history at all: a failover needs none. The primary fails after
  // its retries, and the alternate answers.
  ReqPump::Limits limits;
  limits.retry.max_attempts = 2;
  limits.retry.initial_backoff_micros = 100;
  ReqPump pump(limits);
  std::atomic<int> attempts{0};
  AsyncCallFn failing = [&attempts](CallCompletion done) {
    ++attempts;
    done(CallResult{Status::Unavailable("x is down"), {}});
  };
  ParkedCalls alternate;
  CallId id = Hedged(&pump, failing, {"y", alternate.Fn()});
  alternate.WaitFor(1);
  EXPECT_EQ(attempts.load(), 2);
  alternate.DeliverAll(Answer(9));
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 9);
  EXPECT_TRUE(r.hedged);
  EXPECT_TRUE(r.hedge_won);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.retried, 1u);
  EXPECT_EQ(s.hedged, 1u);
  EXPECT_EQ(s.hedge_wins, 1u);

  // A failed failover fails the call with the alternate's error.
  AsyncCallFn also_failing = [](CallCompletion done) {
    done(CallResult{Status::ExecutionError("y is down too"), {}});
  };
  CallId both = Hedged(&pump, failing, {"y", also_failing});
  CallResult failed = pump.TakeBlocking(both);
  EXPECT_EQ(failed.status.code(), StatusCode::kExecutionError);
  EXPECT_TRUE(failed.hedged);
  EXPECT_FALSE(failed.hedge_won);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, OpenBreakerAtThePrimaryFailsOverToTheAlternate) {
  ReqPump::Limits limits;
  limits.breaker = CircuitBreakerOptions{};
  limits.breaker->failure_threshold = 1;
  limits.breaker->cooldown_micros = 60000000;
  ReqPump pump(limits);
  CallId tripping = pump.Register("x", [](CallCompletion done) {
    done(CallResult{Status::Unavailable("x is down"), {}});
  }, 0);
  EXPECT_FALSE(pump.TakeBlocking(tripping).status.ok());
  ASSERT_EQ(pump.breaker("x")->state(), CircuitState::kOpen);
  // x's breaker rejects the call, which the alternate then answers.
  ParkedCalls never;
  CallId id = Hedged(&pump, never.Fn(), {"y", Immediate(4)});
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 4);
  EXPECT_TRUE(r.hedged);
  EXPECT_TRUE(r.hedge_won);
  EXPECT_EQ(never.invocations(), 0u);
  // Without an alternate the rejection is final.
  CallId none = pump.Register("x", never.Fn(), 0);
  EXPECT_EQ(pump.TakeBlocking(none).status.code(), StatusCode::kUnavailable);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, WithoutAnAlternateTheFailureIsFinal) {
  ReqPump pump;
  WarmUpSelfHedges(&pump, "x");
  ParkedCalls hedge;
  AsyncCallFn failing = [](CallCompletion done) {
    done(CallResult{Status::ExecutionError("bad query"), {}});
  };
  // A self-hedge is no alternate, and a call without a target has none.
  CallId self = Hedged(&pump, failing, {"x", hedge.Fn()});
  CallId none = pump.Register("x", failing, 0);
  for (CallId id : {self, none}) {
    CallResult r = pump.TakeBlocking(id);
    EXPECT_EQ(r.status.code(), StatusCode::kExecutionError);
    EXPECT_FALSE(r.hedged);
  }
  EXPECT_EQ(hedge.invocations(), 0u);
  EXPECT_EQ(pump.stats().hedged, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, DeadlineOrCancelWithBothOutAbandonsBoth) {
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  ReqPump pump(limits);
  WarmUp(&pump, "x");
  WarmUp(&pump, "y");
  ParkedCalls primary;
  ParkedCalls hedge;
  ParkedCalls next;

  // Cancelled with both dispatches out: both slots free at once, so the
  // calls waiting at x and y go out.
  CallId cancelled = Hedged(&pump, primary.Fn(), {"y", hedge.Fn()});
  hedge.WaitFor(1);
  CallId at_x = pump.Register("x", next.Fn(), 0);
  CallId at_y = pump.Register("y", next.Fn(), 0);
  EXPECT_EQ(next.invocations(), 0u);
  ASSERT_TRUE(pump.CancelCall(cancelled));
  EXPECT_EQ(next.invocations(), 2u);
  CallResult r;
  ASSERT_TRUE(pump.TryTake(cancelled, &r));
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(r.hedged);
  next.DeliverAll(Answer(0));
  EXPECT_TRUE(pump.TakeBlocking(at_x).status.ok());
  EXPECT_TRUE(pump.TakeBlocking(at_y).status.ok());

  // Timed out with both out: the same.
  CallId expired =
      Hedged(&pump, primary.Fn(), {"y", hedge.Fn()}, {}, /*timeout=*/30000);
  hedge.WaitFor(2);
  EXPECT_EQ(pump.in_flight(), 2);
  EXPECT_EQ(pump.TakeBlocking(expired).status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(pump.in_flight(), 0);
  // The four abandoned dispatches answer late and are discarded.
  primary.DeliverAll(Answer(1));
  hedge.DeliverAll(Answer(2));
  EXPECT_EQ(pump.stats().late_discarded, 4u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, OpenBreakerAtTheTargetSuppressesTheHedge) {
  ReqPump::Limits limits;
  limits.breaker = CircuitBreakerOptions{};
  limits.breaker->failure_threshold = 2;
  limits.breaker->cooldown_micros = 60000000;
  ReqPump pump(limits);
  WarmUp(&pump, "x");
  AsyncCallFn down = [](CallCompletion done) {
    done(CallResult{Status::Unavailable("y is down"), {}});
  };

  // A hedge's outcome teaches its target's breaker.
  ParkedCalls primary;
  CallId first = Hedged(&pump, primary.Fn(), {"y", down});
  WaitForFailures(pump, "y", 1);
  EXPECT_EQ(pump.breaker("y")->state(), CircuitState::kClosed);
  primary.DeliverAll(Answer(1));
  EXPECT_TRUE(pump.TakeBlocking(first).hedged);
  CallId second = Hedged(&pump, primary.Fn(), {"y", down});
  WaitForFailures(pump, "y", 2);
  EXPECT_EQ(pump.breaker("y")->state(), CircuitState::kOpen);
  primary.DeliverAll(Answer(2));
  EXPECT_TRUE(pump.TakeBlocking(second).status.ok());

  // Now y's breaker is open, so no hedge goes there.
  ParkedCalls never;
  CallId third = Hedged(&pump, primary.Fn(), {"y", never.Fn()});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(never.invocations(), 0u);
  EXPECT_EQ(pump.stats().hedged, 2u);
  primary.DeliverAll(Answer(3));
  CallResult r = pump.TakeBlocking(third);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.hedged);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, DestructionWithAHedgeOutReturnsLikeForAnyCall) {
  ParkedCalls primary;
  ParkedCalls hedge;
  Stopwatch timer;
  {
    ReqPump pump;
    WarmUpSelfHedges(&pump, "x");
    Hedged(&pump, primary.Fn(), {"x", hedge.Fn()}, {}, /*timeout=*/50000);
    hedge.WaitFor(1);
    // ~ReqPump waits for the dispatches until the call's deadline
    // abandons both.
  }
  EXPECT_LT(timer.ElapsedMicros(), 5000000);
  // Both answers land in the dead pump's shared core.
  primary.DeliverAll(Answer(1));
  hedge.DeliverAll(Answer(2));
}

TEST(ReqPumpHedgeTest, SelfHedgeWaitsUntilALaterCallAnswersFirst) {
  // Sixty answers in the order their calls were sent, as a FIFO engine
  // gives them: a second copy there would queue behind the first.
  ReqPump pump;
  for (int i = 0; i < 60; ++i) {
    CallId id = pump.Register("x", Immediate(0), 0);
    ASSERT_TRUE(pump.TakeBlocking(id).status.ok());
  }
  ParkedCalls primary;
  ParkedCalls self;
  ParkedCalls alternate;
  CallId slow = Hedged(&pump, primary.Fn(), {"x", self.Fn()});
  // An alternate is another node, so it is hedged to all the same.
  CallId other = Hedged(&pump, primary.Fn(), {"y", alternate.Fn()});
  alternate.WaitFor(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(self.invocations(), 0u);
  alternate.DeliverAll(Answer(1));
  EXPECT_TRUE(pump.TakeBlocking(other).hedge_won);
  primary.DeliverAll(Answer(2));
  EXPECT_FALSE(pump.TakeBlocking(slow).hedged);

  // Once a call sent 2 ms after another answers first, x self-hedges.
  Overtake(&pump, "x", 2);
  CallId next = Hedged(&pump, primary.Fn(), {"x", self.Fn()});
  self.WaitFor(1);
  self.DeliverAll(Answer(3));
  EXPECT_TRUE(pump.TakeBlocking(next).hedge_won);
  primary.DeliverAll(Answer(4));
  EXPECT_EQ(pump.stats().hedged, 2u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, FailoverQueuesForASlotLikeAFirstDispatch) {
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  ReqPump pump(limits);
  ParkedCalls at_y;
  ParkedCalls waiting;
  ParkedCalls alternate;
  // y's only slot is taken, and a call waits for it.
  CallId holder = pump.Register("y", at_y.Fn(), 0);
  CallId queued = pump.Register("y", waiting.Fn(), 0);
  AsyncCallFn failing = [](CallCompletion done) {
    done(CallResult{Status::Unavailable("x is down"), {}});
  };
  CallId id = Hedged(&pump, failing, {"y", alternate.Fn()});
  // The failover waits behind the call already queued at y.
  EXPECT_FALSE(pump.IsComplete(id));
  EXPECT_EQ(alternate.invocations(), 0u);
  at_y.DeliverAll(Answer(1));
  EXPECT_TRUE(pump.TakeBlocking(holder).status.ok());
  waiting.WaitFor(1);
  EXPECT_EQ(alternate.invocations(), 0u);
  waiting.DeliverAll(Answer(2));
  EXPECT_TRUE(pump.TakeBlocking(queued).status.ok());
  alternate.WaitFor(1);
  alternate.DeliverAll(Answer(3));
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 3);
  EXPECT_TRUE(r.hedged);
  EXPECT_TRUE(r.hedge_won);

  // A failover still waiting when the call's deadline passes leaves the
  // queue without being sent.
  CallId holder2 = pump.Register("y", at_y.Fn(), 0);
  CallId expired = Hedged(&pump, failing, {"y", alternate.Fn()}, {},
                          /*timeout=*/5000);
  CallResult late = pump.TakeBlocking(expired);
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(late.hedged);
  at_y.DeliverAll(Answer(4));
  EXPECT_TRUE(pump.TakeBlocking(holder2).status.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(alternate.invocations(), 1u);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.hedged, 1u);
  EXPECT_EQ(s.hedge_wins, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, OpenBreakerFailoverQueuesForASlotToo) {
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  limits.breaker = CircuitBreakerOptions{};
  limits.breaker->failure_threshold = 1;
  limits.breaker->cooldown_micros = 60000000;
  ReqPump pump(limits);
  CallId tripping = pump.Register("x", [](CallCompletion done) {
    done(CallResult{Status::Unavailable("x is down"), {}});
  }, 0);
  EXPECT_FALSE(pump.TakeBlocking(tripping).status.ok());
  ParkedCalls at_y;
  CallId holder = pump.Register("y", at_y.Fn(), 0);
  // x's breaker rejects the call; its failover waits for y's slot.
  ParkedCalls never;
  CallId id = Hedged(&pump, never.Fn(), {"y", Immediate(5)});
  EXPECT_FALSE(pump.IsComplete(id));
  at_y.DeliverAll(Answer(1));
  EXPECT_TRUE(pump.TakeBlocking(holder).status.ok());
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 5);
  EXPECT_TRUE(r.hedge_won);
  EXPECT_EQ(never.invocations(), 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, AnswerFromTheAlternateIsRecordedUnderIt) {
  // Destinations of their own: the registry's series are process-wide.
  const std::string x = "hedge_attribution.x";
  const std::string y = "hedge_attribution.y";
  ReqPump pump;
  const Histogram* x_latency = pump.latency_histogram(x);
  const Histogram* y_latency = pump.latency_histogram(y);
  ASSERT_NE(x_latency, nullptr);
  ASSERT_NE(y_latency, nullptr);
  const uint64_t x_before = x_latency->count();
  const uint64_t y_before = y_latency->count();
  AsyncCallFn failing = [](CallCompletion done) {
    done(CallResult{Status::Unavailable("x is down"), {}});
  };
  CallId failed_over = pump.Register(x, failing, 0, nullptr, {}, nullptr,
                                     HedgeTarget{y, Immediate(1)});
  EXPECT_TRUE(pump.TakeBlocking(failed_over).hedge_won);
  EXPECT_EQ(x_latency->count(), x_before);
  EXPECT_EQ(y_latency->count(), y_before + 1);
  // The primary's own answer stays in its series.
  CallId direct = pump.Register(x, Immediate(2), 0, nullptr, {}, nullptr,
                                HedgeTarget{y, Immediate(3)});
  EXPECT_FALSE(pump.TakeBlocking(direct).hedged);
  EXPECT_EQ(x_latency->count(), x_before + 1);
  EXPECT_EQ(y_latency->count(), y_before + 1);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, EventsComeFromThePumpWithTheQueryId) {
  constexpr uint64_t kQuery = 0x4ed9e001;
  ReqPump pump;
  WarmUpSelfHedges(&pump, "x");
  ParkedCalls primary;
  ParkedCalls hedge;
  AsyncCallFn failing = [](CallCompletion done) {
    done(CallResult{Status::ExecutionError("x refused"), {}});
  };
  ParkedCalls alternate;
  CallId slow;
  CallId failed_over;
  {
    QueryIdBinding binding(kQuery);
    slow = Hedged(&pump, primary.Fn(), {"x", hedge.Fn()});
    failed_over = Hedged(&pump, failing, {"y", alternate.Fn()});
  }
  hedge.WaitFor(1);
  hedge.DeliverAll(Answer(1));
  EXPECT_TRUE(pump.TakeBlocking(slow).hedge_won);
  alternate.WaitFor(1);
  alternate.DeliverAll(Answer(2));
  EXPECT_TRUE(pump.TakeBlocking(failed_over).hedge_won);
  primary.DeliverAll(Answer(3));

  std::vector<std::string> seen;
  for (const FrEvent& e : FlightRecorder::Global()->EventsForQuery(kQuery)) {
    if (e.type == FrEventType::kHedgeFire ||
        e.type == FrEventType::kHedgeReap) {
      seen.push_back(std::string(FrEventTypeName(e.type)) + " " +
                     e.destination + " " + e.cause);
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "hedge_fire x latency_quantile",
                      "hedge_fire y primary_failed",
                      "hedge_reap x primary_lost"}));
  ExpectLedgerBalanced(pump);
}

/// A jittery engine with a tail: answers each call on its own thread
/// after `min_micros` plus up to `spread_micros` (0.2–1 ms by default),
/// or ten times that for one call in `tail_one_in` (0 = none).
class TailedEngine {
 public:
  explicit TailedEngine(uint64_t seed, int64_t min_micros = 200,
                        uint64_t spread_micros = 800, uint64_t tail_one_in = 10)
      : rng_(seed),
        min_micros_(min_micros),
        spread_micros_(spread_micros),
        tail_one_in_(tail_one_in) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~TailedEngine() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  AsyncCallFn Fn(int64_t value) {
    return [this, value](CallCompletion done) {
      std::lock_guard<std::mutex> lock(mu_);
      int64_t delay = min_micros_;
      if (spread_micros_ > 0) {
        delay += static_cast<int64_t>(rng_.Uniform(spread_micros_));
      }
      if (tail_one_in_ > 0 && rng_.Uniform(tail_one_in_) == 0) delay *= 10;
      pending_.push_back({NowMicros() + delay, std::move(done), value});
      cv_.notify_all();
    };
  }

 private:
  struct Pending {
    int64_t due;
    CallCompletion done;
    int64_t value;
  };

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      std::vector<Pending> ready;
      const int64_t now = NowMicros();
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (stop_ || it->due <= now) {
          ready.push_back(std::move(*it));
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
      if (!ready.empty()) {
        lock.unlock();
        for (Pending& p : ready) p.done(Answer(p.value));
        lock.lock();
        continue;
      }
      if (stop_) return;
      cv_.wait_for(lock, std::chrono::microseconds(100));
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  Rng rng_;
  const int64_t min_micros_;
  const uint64_t spread_micros_;
  const uint64_t tail_one_in_;
  std::vector<Pending> pending_;
  bool stop_ = false;
  std::thread thread_;
};

TEST(ReqPumpHedgeTest, FixedLatencyHedgesFewCalls) {
  // Every call takes the same 10 ms, one at a time, and names an
  // alternate. 10 ms lies in the upper half of its histogram bucket,
  // [9216, 10239] us, so a delay at the bucket's midpoint would hedge
  // every call after the first 50; the delay is never below the
  // latencies seen, so hardly any call outlasts it.
  constexpr int kCalls = 100;
  TailedEngine engine(3, 10000, 0, 0);
  ReqPump pump;
  for (int i = 0; i < kCalls; ++i) {
    CallId id = Hedged(&pump, engine.Fn(i), {"y", engine.Fn(i)});
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.rows[0].value(0).AsInt(), i);
  }
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.dispatched, static_cast<uint64_t>(kCalls));
  EXPECT_LE(s.hedged * 10, s.dispatched) << s.hedged << " hedges";
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpHedgeTest, ConcurrentHedgedCallsResolveEachRegistrationOnce) {
  constexpr int kThreads = 6;
  constexpr int kCallsPerThread = 150;
  TailedEngine engine(7);
  std::atomic<int> notified{0};
  {
    ReqPump::Limits limits;
    limits.max_per_destination = 24;
    ReqPump pump(limits);
    std::vector<std::thread> threads;
    std::atomic<int> resolved{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(100 + t);
        for (int i = 0; i < kCallsPerThread; ++i) {
          const int64_t value = static_cast<int64_t>(rng.Uniform(40));
          // A shared key makes identical calls join; every other call
          // hedges to the alternate, the rest to themselves.
          const std::string key = "k" + std::to_string(value);
          HedgeTarget hedge{i % 2 == 0 ? "x" : "y", engine.Fn(value)};
          const int64_t timeout = i % 7 == 0 ? 3000 : 0;
          CallId id = pump.Register("x", engine.Fn(value), timeout,
                                    [&notified] { ++notified; }, key,
                                    nullptr, std::move(hedge));
          if (i % 11 == 0) pump.CancelCall(id);
          CallResult r = pump.TakeBlocking(id);
          if (r.status.ok()) {
            ASSERT_EQ(r.rows.size(), 1u);
            EXPECT_EQ(r.rows[0].value(0).AsInt(), value);
          } else {
            EXPECT_TRUE(r.status.code() == StatusCode::kCancelled ||
                        r.status.code() == StatusCode::kDeadlineExceeded)
                << r.status.ToString();
          }
          ++resolved;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(resolved.load(), kThreads * kCallsPerThread);
    ReqPumpStats s = pump.stats();
    EXPECT_EQ(s.registered, static_cast<uint64_t>(kThreads * kCallsPerThread));
    EXPECT_GT(s.hedged, 0u);
    EXPECT_LE(s.hedge_wins, s.hedged);
    EXPECT_EQ(pump.in_flight(), 0);
    ExpectLedgerBalanced(pump);
    // Every registration not cancelled ran its notification once.
    const uint64_t notifications = s.registered - s.cancelled;
    while (static_cast<uint64_t>(notified.load()) < notifications) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(static_cast<uint64_t>(notified.load()), notifications);
  }
}

}  // namespace
}  // namespace wsq
