#include "async/req_pump.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace wsq {
namespace {

CallResult OkRows(std::vector<Row> rows) {
  return CallResult{Status::OK(), std::move(rows)};
}

// A call that completes synchronously with one int row.
AsyncCallFn ImmediateCall(int64_t v) {
  return [v](CallCompletion done) {
    done(OkRows({Row({Value::Int(v)})}));
  };
}

// A call that completes from a detached thread after `micros`.
AsyncCallFn DelayedCall(int64_t v, int64_t micros,
                        std::atomic<int>* live_counter = nullptr,
                        std::atomic<int>* peak = nullptr) {
  return [=](CallCompletion done) {
    if (live_counter != nullptr) {
      int now = ++*live_counter;
      int old = peak->load();
      while (now > old && !peak->compare_exchange_weak(old, now)) {
      }
    }
    std::thread([=] {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
      if (live_counter != nullptr) --*live_counter;
      done(OkRows({Row({Value::Int(v)})}));
    }).detach();
  };
}

TEST(ReqPumpTest, RegisterReturnsImmediately) {
  ReqPump pump;
  Stopwatch timer;
  // The bound only needs to prove Register didn't block for the call's
  // 100 ms round-trip; keep generous headroom so TSan's slowdown under
  // parallel ctest load can't produce false failures.
  CallId id = pump.Register("AltaVista", DelayedCall(1, 100000));
  EXPECT_LT(timer.ElapsedMicros(), 50000);
  EXPECT_NE(id, kInvalidCallId);
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 1);
}

TEST(ReqPumpTest, CallIdsAreUnique) {
  ReqPump pump;
  CallId a = pump.Register("x", ImmediateCall(1));
  CallId b = pump.Register("x", ImmediateCall(2));
  EXPECT_NE(a, b);
}

TEST(ReqPumpTest, ResultsStoredInHashUntilTaken) {
  ReqPump pump;
  CallId id = pump.Register("x", ImmediateCall(42));
  EXPECT_TRUE(pump.IsComplete(id));
  CallResult out;
  ASSERT_TRUE(pump.TryTake(id, &out));
  EXPECT_EQ(out.rows[0].value(0).AsInt(), 42);
  // Taken: gone from the hash.
  EXPECT_FALSE(pump.IsComplete(id));
  EXPECT_FALSE(pump.TryTake(id, &out));
}

TEST(ReqPumpTest, TryTakeBeforeCompletionReturnsFalse) {
  ReqPump pump;
  CallId id = pump.Register("x", DelayedCall(1, 50000));
  CallResult out;
  EXPECT_FALSE(pump.TryTake(id, &out));
  pump.TakeBlocking(id);
}

TEST(ReqPumpTest, ManyCallsRunConcurrently) {
  ReqPump pump;
  std::vector<CallId> ids;
  Stopwatch timer;
  // 37 calls of 30 ms each — the paper's Sigs example (§4.1).
  for (int i = 0; i < 37; ++i) {
    ids.push_back(pump.Register("AltaVista", DelayedCall(i, 30000)));
  }
  for (CallId id : ids) pump.TakeBlocking(id);
  // Concurrent: far below the 1.1 s serial time.
  EXPECT_LT(timer.ElapsedMicros(), 400000);
  EXPECT_EQ(pump.stats().completed, 37u);
  EXPECT_GT(pump.stats().max_in_flight, 10u);
}

TEST(ReqPumpTest, GlobalLimitEnforced) {
  ReqPump::Limits limits;
  limits.max_global = 3;
  ReqPump pump(limits);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  std::vector<CallId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(
        pump.Register("AltaVista", DelayedCall(i, 10000, &live, &peak)));
  }
  for (CallId id : ids) pump.TakeBlocking(id);
  EXPECT_LE(peak.load(), 3);
  EXPECT_EQ(pump.stats().completed, 12u);
  EXPECT_GT(pump.stats().queued_peak, 0u);
}

TEST(ReqPumpTest, PerDestinationLimitEnforced) {
  ReqPump::Limits limits;
  limits.max_per_destination = 2;
  ReqPump pump(limits);
  std::atomic<int> live_av{0}, peak_av{0}, live_g{0}, peak_g{0};
  std::vector<CallId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(pump.Register(
        "AltaVista", DelayedCall(i, 10000, &live_av, &peak_av)));
    ids.push_back(
        pump.Register("Google", DelayedCall(i, 10000, &live_g, &peak_g)));
  }
  for (CallId id : ids) pump.TakeBlocking(id);
  EXPECT_LE(peak_av.load(), 2);
  EXPECT_LE(peak_g.load(), 2);
  // Both destinations made progress in parallel.
  EXPECT_EQ(pump.stats().completed, 12u);
}

TEST(ReqPumpTest, BlockedDestinationDoesNotStarveOthers) {
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  ReqPump pump(limits);
  // Long call occupies AltaVista; short Google call queued after more
  // AltaVista calls must still dispatch promptly.
  CallId slow = pump.Register("AltaVista", DelayedCall(1, 80000));
  CallId also_slow = pump.Register("AltaVista", DelayedCall(2, 10000));
  Stopwatch timer;
  CallId fast = pump.Register("Google", DelayedCall(3, 1000));
  pump.TakeBlocking(fast);
  EXPECT_LT(timer.ElapsedMicros(), 50000);
  pump.TakeBlocking(slow);
  pump.TakeBlocking(also_slow);
}

TEST(ReqPumpTest, WaitForCompletionBeyond) {
  ReqPump pump;
  uint64_t seq = pump.completion_seq();
  CallId id = pump.Register("x", DelayedCall(5, 20000));
  pump.WaitForCompletionBeyond(seq);
  EXPECT_TRUE(pump.IsComplete(id));
}

TEST(ReqPumpTest, DrainWaitsForAll) {
  ReqPump pump;
  std::vector<CallId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(pump.Register("x", DelayedCall(i, 15000)));
  }
  pump.Drain();
  for (CallId id : ids) EXPECT_TRUE(pump.IsComplete(id));
}

TEST(ReqPumpTest, FailedCallsCounted) {
  ReqPump pump;
  CallId id = pump.Register("x", [](CallCompletion done) {
    done(CallResult{Status::IOError("engine unavailable"), {}});
  });
  CallResult r = pump.TakeBlocking(id);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(pump.stats().failed, 1u);
}

TEST(ReqPumpTest, MultiRowResults) {
  ReqPump pump;
  CallId id = pump.Register("x", [](CallCompletion done) {
    done(OkRows({Row({Value::Int(1)}), Row({Value::Int(2)}),
                 Row({Value::Int(3)})}));
  });
  CallResult r = pump.TakeBlocking(id);
  ASSERT_EQ(r.rows.size(), 3u);
}

TEST(ReqPumpTest, EmptyResultRows) {
  ReqPump pump;
  CallId id = pump.Register("x", [](CallCompletion done) {
    done(OkRows({}));
  });
  CallResult r = pump.TakeBlocking(id);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.rows.empty());
}

TEST(ReqPumpTest, DestructorDropsQueuedCalls) {
  ReqPump::Limits limits;
  limits.max_global = 1;
  std::atomic<int> dispatched{0};
  {
    ReqPump pump(limits);
    pump.Register("x", DelayedCall(1, 20000));
    // These stay queued behind the limit and are dropped at shutdown.
    for (int i = 0; i < 3; ++i) {
      pump.Register("x", [&](CallCompletion done) {
        ++dispatched;
        done(OkRows({}));
      });
    }
  }
  // Queued calls were never dispatched... except any that got a slot
  // when the first call finished before destruction. Either way, no
  // crash and no hang. dispatched <= 3.
  EXPECT_LE(dispatched.load(), 3);
}

TEST(ReqPumpTest, StatsTrackRegistrations) {
  ReqPump pump;
  for (int i = 0; i < 4; ++i) {
    pump.Register("x", ImmediateCall(i));
  }
  pump.Drain();
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.registered, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.failed, 0u);
}

// A call whose completion callback is captured and never invoked by the
// service — the hung-engine case deadlines exist for. If `stash` is
// set, the completion is saved so the test can fire it late.
AsyncCallFn HangingCall(CallCompletion* stash = nullptr) {
  return [stash](CallCompletion done) {
    if (stash != nullptr) *stash = std::move(done);
  };
}

TEST(ReqPumpDeadlineTest, TimeoutCompletesCallWithDeadlineExceeded) {
  ReqPump pump;
  Stopwatch timer;
  CallId id = pump.Register("AltaVista", HangingCall(), 20000);
  CallResult r = pump.TakeBlocking(id);
  // TakeBlocking returned close to the deadline, not hanging forever.
  EXPECT_GE(timer.ElapsedMicros(), 20000);
  EXPECT_LT(timer.ElapsedMicros(), 500000);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsTransient(r.status.code()));
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.failed, 1u);
}

TEST(ReqPumpDeadlineTest, LateCompletionIsDiscarded) {
  CallCompletion stashed;
  ReqPump pump;
  CallId id = pump.Register("AltaVista", HangingCall(&stashed), 5000);
  CallResult r = pump.TakeBlocking(id);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);

  // The engine finally answers, long after the timeout. The result
  // must be dropped: no double-complete, no resurrected hash entry.
  stashed(OkRows({Row({Value::Int(99)})}));
  EXPECT_FALSE(pump.IsComplete(id));
  ReqPumpStats s = pump.stats();
  EXPECT_EQ(s.late_discarded, 1u);
  EXPECT_EQ(s.completed, 1u);  // counted once, by the timer
}

TEST(ReqPumpDeadlineTest, DefaultTimeoutFromLimits) {
  ReqPump::Limits limits;
  limits.default_timeout_micros = 15000;
  ReqPump pump(limits);
  CallId id = pump.Register("AltaVista", HangingCall());
  CallResult r = pump.TakeBlocking(id);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ReqPumpDeadlineTest, ExplicitZeroDisablesDefaultTimeout) {
  ReqPump::Limits limits;
  limits.default_timeout_micros = 5000;
  ReqPump pump(limits);
  // timeout_micros <= 0 opts this call out of the default deadline.
  CallId id = pump.Register("AltaVista", DelayedCall(7, 30000), 0);
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 7);
  EXPECT_EQ(pump.stats().timed_out, 0u);
}

TEST(ReqPumpDeadlineTest, FastCallBeatsItsDeadline) {
  ReqPump pump;
  CallId id = pump.Register("AltaVista", DelayedCall(3, 2000), 200000);
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  // Give the timer a beat: the stale deadline entry must not fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(pump.stats().timed_out, 0u);
  EXPECT_EQ(pump.stats().late_discarded, 0u);
}

TEST(ReqPumpDeadlineTest, QueuedCallCanTimeOutBeforeDispatch) {
  ReqPump::Limits limits;
  limits.max_global = 1;
  ReqPump pump(limits);
  CallCompletion stashed;
  CallId slow = pump.Register("AltaVista", HangingCall(&stashed), 0);
  // Queued behind the hung call; its deadline passes while waiting.
  CallId queued = pump.Register("AltaVista", ImmediateCall(1), 10000);
  CallResult r = pump.TakeBlocking(queued);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  // Unblock the first call so the pump can shut down.
  stashed(OkRows({}));
  CallResult first = pump.TakeBlocking(slow);
  EXPECT_TRUE(first.status.ok());
}

TEST(ReqPumpDeadlineTest, TimeoutFreesLimitSlotForQueuedCalls) {
  ReqPump::Limits limits;
  limits.max_global = 1;
  ReqPump pump(limits);
  // A hung call holds the only slot; its timeout must release it so
  // the queued call behind it still runs.
  CallId hung = pump.Register("AltaVista", HangingCall(), 10000);
  CallId queued = pump.Register("AltaVista", ImmediateCall(5), 0);
  CallResult r = pump.TakeBlocking(queued);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 5);
  EXPECT_EQ(pump.TakeBlocking(hung).status.code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ReqPumpDeadlineTest, LateCompletionAfterPumpDestructionIsSafe) {
  CallCompletion stashed;
  {
    ReqPump pump;
    CallId id = pump.Register("AltaVista", HangingCall(&stashed), 3000);
    CallResult r = pump.TakeBlocking(id);
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  }
  // The pump is gone; the engine's answer arrives anyway. The shared
  // core absorbs it — no use-after-free, no crash.
  stashed(OkRows({Row({Value::Int(1)})}));
}

TEST(ReqPumpDeadlineTest, ManyMixedDeadlinesResolveIndependently) {
  ReqPump pump;
  std::vector<CallId> timed_out_ids;
  std::vector<CallId> ok_ids;
  for (int i = 0; i < 8; ++i) {
    timed_out_ids.push_back(
        pump.Register("hungry", HangingCall(), 8000 + i * 1000));
    ok_ids.push_back(
        pump.Register("healthy", DelayedCall(i, 1000), 300000));
  }
  for (CallId id : ok_ids) {
    EXPECT_TRUE(pump.TakeBlocking(id).status.ok());
  }
  for (CallId id : timed_out_ids) {
    EXPECT_EQ(pump.TakeBlocking(id).status.code(),
              StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(pump.stats().timed_out, 8u);
}

/// Records the tags of PumpCallbacks in the order they ran.
class CallbackLog {
 public:
  PumpCallback Add(int tag) {
    return [this, tag] {
      MutexLock lock(&mu_);
      runs_.push_back(tag);
      threads_.push_back(std::this_thread::get_id());
      cv_.NotifyAll();
    };
  }

  /// Waits (up to 5 s) until `n` callbacks have run; returns every run.
  std::vector<int> WaitFor(size_t n) {
    Stopwatch timer;
    MutexLock lock(&mu_);
    while (runs_.size() < n && timer.ElapsedMicros() < 5000000) {
      cv_.WaitForMicros(mu_, 10000);
    }
    return runs_;
  }

  std::vector<std::thread::id> threads() {
    MutexLock lock(&mu_);
    return threads_;
  }

  Mutex* mu() WSQ_RETURN_CAPABILITY(mu_) { return &mu_; }

 private:
  Mutex mu_;
  CondVar cv_;
  std::vector<int> runs_ WSQ_GUARDED_BY(mu_);
  std::vector<std::thread::id> threads_ WSQ_GUARDED_BY(mu_);
};

TEST(ReqPumpCallbackTest, NotificationRunsOnceForCompletionDeadlineAndShed) {
  ReqPump::Limits limits;
  limits.max_global = 1;
  limits.max_queued = 1;
  ReqPump pump(limits);
  CallbackLog log;
  CallCompletion stashed;
  // Holds the only slot until the test completes it.
  CallId completes = pump.Register("x", HangingCall(&stashed), 0, log.Add(1));
  // Waits in the queue behind it and expires there.
  CallId expires = pump.Register("x", ImmediateCall(2), 10000, log.Add(2));
  // The queue is full: shed at once.
  CallId shed = pump.Register("x", ImmediateCall(3), 0, log.Add(3));

  EXPECT_EQ(log.WaitFor(2), (std::vector<int>{3, 2}));
  stashed(OkRows({Row({Value::Int(1)})}));
  // A later call's notification runs after any stray repeat would have.
  pump.Register("x", ImmediateCall(4), 0, log.Add(4));
  EXPECT_EQ(log.WaitFor(4), (std::vector<int>{3, 2, 1, 4}));

  EXPECT_TRUE(pump.TakeBlocking(completes).status.ok());
  EXPECT_EQ(pump.TakeBlocking(expires).status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(pump.TakeBlocking(shed).status.code(),
            StatusCode::kResourceExhausted);
}

TEST(ReqPumpCallbackTest, LateCompletionAndCancelNeverRunNotification) {
  ReqPump pump;
  CallbackLog log;
  CallCompletion late;
  CallCompletion after_cancel;
  CallId timed_out = pump.Register("x", HangingCall(&late), 5000, log.Add(1));
  CallId cancelled =
      pump.Register("x", HangingCall(&after_cancel), 0, log.Add(2));
  ASSERT_TRUE(pump.CancelCall(cancelled));
  EXPECT_EQ(pump.TakeBlocking(timed_out).status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(log.WaitFor(1), (std::vector<int>{1}));

  // Both engines answer after all; the pump discards the answers.
  late(OkRows({}));
  after_cancel(OkRows({}));
  pump.Register("x", ImmediateCall(3), 0, log.Add(3));
  EXPECT_EQ(log.WaitFor(2), (std::vector<int>{1, 3}));
  EXPECT_EQ(pump.stats().late_discarded, 2u);
  CallResult discard;
  EXPECT_TRUE(pump.TryTake(cancelled, &discard));
}

TEST(ReqPumpCallbackTest, NotificationNeverRunsOnTheRegisteringThread) {
  ReqPump pump;
  CallbackLog log;
  {
    // The call completes inline inside Register while this thread holds
    // the lock the notification takes: running it here would deadlock.
    MutexLock lock(log.mu());
    pump.Register("x", ImmediateCall(1), 0, log.Add(1));
  }
  EXPECT_EQ(log.WaitFor(1), (std::vector<int>{1}));
  ASSERT_EQ(log.threads().size(), 1u);
  EXPECT_NE(log.threads()[0], std::this_thread::get_id());
}

}  // namespace
}  // namespace wsq
