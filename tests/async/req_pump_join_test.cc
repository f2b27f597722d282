#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "async/req_pump.h"
#include "obs/flight_recorder.h"

// Request keys in ReqPump: a registration whose (destination, key)
// matches an unresolved call joins it, and one matching a call that has
// answered joins that answer while a copy of it is still untaken. The
// call keeps one slot, one breaker admission and one retry sequence;
// each joiner keeps its own id, deadline, cancel and copy of the result.
// Every case ends with the pump ledger balanced.

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

/// Parks each invocation's completion for the test to deliver later.
class ParkedCalls {
 public:
  AsyncCallFn Fn() {
    return [this](CallCompletion done) {
      std::lock_guard<std::mutex> lock(mu_);
      held_.push_back(std::move(done));
      ++invocations_;
    };
  }
  size_t invocations() {
    std::lock_guard<std::mutex> lock(mu_);
    return invocations_;
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
  std::vector<CallCompletion> held_;
  size_t invocations_ = 0;
};

/// Registers `fn` on `pump` keyed by `key`, with no deadline.
CallId Keyed(ReqPump* pump, const std::string& key, AsyncCallFn fn,
             bool* joined = nullptr, int64_t timeout_micros = 0) {
  return pump->Register("x", std::move(fn), timeout_micros, nullptr, key,
                        joined);
}

TEST(ReqPumpJoinTest, SameKeyDispatchesOnceAndEveryJoinerGetsTheAnswer) {
  ReqPump pump;
  ParkedCalls parked;
  bool first_joined = true;
  bool second_joined = false;
  CallId a = Keyed(&pump, "k", parked.Fn(), &first_joined);
  CallId b = Keyed(&pump, "k", parked.Fn(), &second_joined);
  EXPECT_FALSE(first_joined);
  EXPECT_TRUE(second_joined);
  EXPECT_NE(a, b);
  EXPECT_EQ(parked.invocations(), 1u);
  EXPECT_EQ(pump.in_flight(), 1);

  parked.DeliverAll(Answer(7));
  for (CallId id : {a, b}) {
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0].value(0).AsInt(), 7);
  }
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.registered, 2u);
  EXPECT_EQ(s.dispatched, 1u);
  EXPECT_EQ(s.joined, 1u);
  EXPECT_EQ(s.completed, 2u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, DifferentOrEmptyKeyOrDestinationDoesNotJoin) {
  ReqPump pump;
  ParkedCalls parked;
  std::vector<CallId> ids = {
      Keyed(&pump, "k", parked.Fn()),
      Keyed(&pump, "other", parked.Fn()),
      Keyed(&pump, "", parked.Fn()),
      Keyed(&pump, "", parked.Fn()),
      pump.Register("y", parked.Fn(), 0, nullptr, "k"),
      pump.Register("x", parked.Fn()),
  };
  EXPECT_EQ(parked.invocations(), ids.size());
  parked.DeliverAll(Answer(1));
  for (CallId id : ids) EXPECT_TRUE(pump.TakeBlocking(id).status.ok());
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.dispatched, ids.size());
  EXPECT_EQ(s.joined, 0u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, AnswerIsJoinedUntilItsLastCopyIsTaken) {
  ReqPump pump;
  ParkedCalls parked;
  CallId first = Keyed(&pump, "k", parked.Fn());
  parked.DeliverAll(Answer(3));
  while (!pump.IsComplete(first)) {  // bounded by the ctest timeout
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Read without taking: the answer stays joinable.
  CallResult peeked;
  ASSERT_TRUE(pump.Peek(first, &peeked));
  EXPECT_EQ(peeked.rows[0].value(0).AsInt(), 3);

  bool joined = false;
  CallId second = Keyed(&pump, "k", parked.Fn(), &joined);
  EXPECT_TRUE(joined);
  EXPECT_TRUE(pump.IsComplete(second));
  EXPECT_EQ(pump.TakeBlocking(first).rows[0].value(0).AsInt(), 3);
  // The second registration's copy still holds the answer.
  joined = false;
  CallId third = Keyed(&pump, "k", parked.Fn(), &joined);
  EXPECT_TRUE(joined);
  for (CallId id : {second, third}) {
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows[0].value(0).AsInt(), 3);
    EXPECT_EQ(r.in_flight_micros, 0);
  }
  EXPECT_EQ(parked.invocations(), 1u);

  // Every copy taken: the next registration dispatches anew.
  joined = true;
  CallId fourth = Keyed(&pump, "k", parked.Fn(), &joined);
  EXPECT_FALSE(joined);
  parked.DeliverAll(Answer(4));
  EXPECT_EQ(pump.TakeBlocking(fourth).rows[0].value(0).AsInt(), 4);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.registered, 4u);
  EXPECT_EQ(s.dispatched, 2u);
  EXPECT_EQ(s.joined, 2u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, ResolvedCallIsNotJoined) {
  ReqPump pump;
  ParkedCalls parked;
  CallId first = Keyed(&pump, "k", parked.Fn());
  parked.DeliverAll(Answer(1));
  ASSERT_TRUE(pump.TakeBlocking(first).status.ok());
  bool joined = true;
  CallId second = Keyed(&pump, "k", parked.Fn(), &joined);
  EXPECT_FALSE(joined);
  parked.DeliverAll(Answer(2));
  EXPECT_EQ(pump.TakeBlocking(second).rows[0].value(0).AsInt(), 2);
  EXPECT_EQ(pump.stats().dispatched, 2u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, OneJoinersDeadlineOrCancelSparesTheOthers) {
  ReqPump pump;
  ParkedCalls parked;
  const uint64_t qid = 992001;
  CallId timed;
  {
    QueryIdBinding bind(qid);
    timed = Keyed(&pump, "k", parked.Fn(), nullptr, 20000);
  }
  CallId cancelled = Keyed(&pump, "k", parked.Fn());
  CallId survivor = Keyed(&pump, "k", parked.Fn());

  EXPECT_EQ(pump.TakeBlocking(timed).status.code(),
            StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(pump.CancelCall(cancelled));
  EXPECT_EQ(pump.TakeBlocking(cancelled).status.code(),
            StatusCode::kCancelled);
  // The dispatch still serves the survivor, holding its slot.
  EXPECT_FALSE(pump.IsComplete(survivor));
  EXPECT_EQ(pump.in_flight(), 1);

  parked.DeliverAll(Answer(5));
  CallResult r = pump.TakeBlocking(survivor);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 5);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.dispatched, 1u);
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.late_discarded, 0u);
  EXPECT_EQ(parked.invocations(), 1u);
  ExpectLedgerBalanced(pump);
  // The expiry is logged as the joiner's, not as an abandoned dispatch.
  int expiries = 0;
  for (const FrEvent& e : FlightRecorder::Global()->EventsForQuery(qid)) {
    if (e.type != FrEventType::kCallTimeout) continue;
    EXPECT_EQ(e.cause, "joiner_expired");
    ++expiries;
  }
  EXPECT_GE(expiries, 1);
}

TEST(ReqPumpJoinTest, LastJoinerLeavingAbandonsTheDispatchAndFreesItsSlot) {
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  ReqPump pump(limits);
  ParkedCalls parked;
  CallId a = Keyed(&pump, "k", parked.Fn());
  CallId b = Keyed(&pump, "k", parked.Fn());
  CallId queued = Keyed(&pump, "other", parked.Fn());
  EXPECT_EQ(parked.invocations(), 1u);

  // One joiner leaving keeps the dispatch and its slot.
  ASSERT_TRUE(pump.CancelCall(a));
  EXPECT_EQ(pump.in_flight(), 1);
  EXPECT_EQ(parked.invocations(), 1u);
  // The last one abandons it: the slot goes to the queued call at once.
  ASSERT_TRUE(pump.CancelCall(b));
  EXPECT_EQ(parked.invocations(), 2u);
  EXPECT_EQ(pump.in_flight(), 1);

  for (CallId id : {a, b}) {
    EXPECT_EQ(pump.TakeBlocking(id).status.code(), StatusCode::kCancelled);
  }
  // The abandoned dispatch's late answer is discarded.
  parked.DeliverAll(Answer(3));
  EXPECT_TRUE(pump.TakeBlocking(queued).status.ok());
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.late_discarded, 1u);
  EXPECT_EQ(s.dispatched, 2u);
  EXPECT_EQ(pump.in_flight(), 0);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, JoinerTakesNoBreakerAdmission) {
  // A breaker that trips on one failure and half-opens after 1 ms of
  // the test's clock.
  auto clock = std::make_shared<std::atomic<int64_t>>(0);
  ReqPump::Limits limits;
  limits.breaker = CircuitBreakerOptions{
      .failure_threshold = 1,
      .cooldown_micros = 1000,
      .now = [clock] { return clock->load(); }};
  ReqPump pump(limits);
  CallId tripping = pump.Register("x", [](CallCompletion done) {
    done(CallResult{Status::Unavailable("down"), {}});
  });
  EXPECT_FALSE(pump.TakeBlocking(tripping).status.ok());
  ASSERT_EQ(pump.breaker("x")->state(), CircuitState::kOpen);
  clock->store(5000);

  // The half-open breaker admits one probe; a second admission would
  // fail fast, so the joiner must ride on the probe instead.
  ParkedCalls parked;
  CallId probe = Keyed(&pump, "k", parked.Fn());
  bool joined = false;
  CallId joiner = Keyed(&pump, "k", parked.Fn(), &joined);
  EXPECT_TRUE(joined);
  parked.DeliverAll(Answer(9));
  for (CallId id : {probe, joiner}) {
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  CircuitBreaker breaker = *pump.breaker("x");
  EXPECT_EQ(breaker.stats().probes, 1u);
  EXPECT_EQ(breaker.stats().fast_failures, 0u);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, JoinDuringBackoffStartsNoSecondRetrySequence) {
  ReqPump::Limits limits;
  limits.retry = {.max_attempts = 3, .initial_backoff_micros = 20000};
  ReqPump pump(limits);
  // Fails transiently on its first invocation, answers on the next.
  std::atomic<int> invocations{0};
  AsyncCallFn flaky = [&invocations](CallCompletion done) {
    if (invocations.fetch_add(1) == 0) {
      done(CallResult{Status::Unavailable("blip"), {}});
    } else {
      done(Answer(4));
    }
  };
  CallId first = Keyed(&pump, "k", flaky);
  // The first attempt failed inline; the call now waits out its backoff.
  ASSERT_EQ(invocations.load(), 1);
  bool joined = false;
  CallId second = Keyed(&pump, "k", flaky, &joined);
  EXPECT_TRUE(joined);
  for (CallId id : {first, second}) {
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows[0].value(0).AsInt(), 4);
  }
  EXPECT_EQ(invocations.load(), 2);
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.dispatched, 1u);
  EXPECT_EQ(s.retried, 1u);
  EXPECT_EQ(s.joined, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, RetryIsBoundedByTheLatestRemainingDeadline) {
  // The backoff floor (50 ms) ends past the first joiner's deadline but
  // well inside the second's, so the call retries for the second.
  ReqPump::Limits limits;
  limits.retry = {.max_attempts = 2, .initial_backoff_micros = 50000};
  ReqPump pump(limits);
  ParkedCalls parked;
  CallId early = Keyed(&pump, "k", parked.Fn(), nullptr, 30000);
  CallId late = Keyed(&pump, "k", parked.Fn(), nullptr, 5000000);
  parked.DeliverAll(CallResult{Status::Unavailable("blip"), {}});
  EXPECT_EQ(pump.TakeBlocking(early).status.code(),
            StatusCode::kDeadlineExceeded);
  // Bounded by the ctest timeout: the retry dispatches after its
  // backoff.
  while (parked.invocations() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  parked.DeliverAll(Answer(6));
  CallResult r = pump.TakeBlocking(late);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(pump.stats().retried, 1u);
  ExpectLedgerBalanced(pump);
}

TEST(ReqPumpJoinTest, RegistrationThatWouldBeShedJoinsInstead) {
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  limits.max_queued = 1;
  ReqPump pump(limits);
  ParkedCalls parked;
  CallId in_flight = Keyed(&pump, "a", parked.Fn());
  CallId queued = Keyed(&pump, "b", parked.Fn());
  CallId shed = Keyed(&pump, "c", parked.Fn());
  EXPECT_EQ(pump.TakeBlocking(shed).status.code(),
            StatusCode::kResourceExhausted);
  // The queue is still full, yet both join instead of being shed.
  bool joined_queued = false;
  bool joined_in_flight = false;
  CallId joins_queued = Keyed(&pump, "b", parked.Fn(), &joined_queued);
  CallId joins_in_flight = Keyed(&pump, "a", parked.Fn(), &joined_in_flight);
  EXPECT_TRUE(joined_queued);
  EXPECT_TRUE(joined_in_flight);

  // Bounded by the ctest timeout: each answer frees the slot for the
  // queued call, which then parks too.
  while (!pump.IsComplete(joins_queued)) {
    parked.DeliverAll(Answer(8));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (CallId id : {in_flight, queued, joins_queued, joins_in_flight}) {
    CallResult r = pump.TakeBlocking(id);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.joined, 2u);
  EXPECT_EQ(s.dispatched, 2u);
  ExpectLedgerBalanced(pump);
}

}  // namespace
}  // namespace wsq
