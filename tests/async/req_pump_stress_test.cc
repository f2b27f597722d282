// Producer/consumer stress for ReqPump under tight limits, aimed at
// the lock-and-signal paths the capability annotations protect. Run
// under -DWSQ_SANITIZE=thread; ctest label: stress.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "async/req_pump.h"
#include "common/random.h"

namespace wsq {
namespace {

/// Completes `done` from a detached thread after `delay_micros`,
/// mimicking a network round-trip.
void CompleteLater(CallCompletion done, int64_t delay_micros, int tag) {
  std::thread([done = std::move(done), delay_micros, tag] {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_micros));
    done(CallResult{Status::OK(), {Row({Value::Int(tag)})}});
  }).detach();
}

// N producer threads hammer one pump whose limits force most calls to
// queue, while a consumer concurrently drains every id with
// TakeBlocking. Short deadlines make a fraction of the calls time out
// (cancellation path) in the middle of the producers' registrations.
TEST(ReqPumpStressTest, ProducersVsBlockingConsumerWithTimeouts) {
  constexpr int kProducers = 4;
  constexpr int kCallsPerProducer = 60;
  constexpr int kTotal = kProducers * kCallsPerProducer;

  ReqPump::Limits limits;
  limits.max_global = 6;
  limits.max_per_destination = 2;
  limits.default_timeout_micros = 8000;
  ReqPump pump(limits);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<CallId> ids;
  bool producers_done = false;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + p);
      const char* destinations[] = {"alpha", "beta", "gamma"};
      for (int i = 0; i < kCallsPerProducer; ++i) {
        int tag = p * kCallsPerProducer + i;
        // Mostly fast, occasionally slower than the deadline.
        int64_t delay = 100 + static_cast<int64_t>(rng.Uniform(2000));
        if (rng.Uniform(10) == 0) delay = 20000;
        CallId id = pump.Register(
            destinations[i % 3], [delay, tag](CallCompletion done) {
              CompleteLater(std::move(done), delay, tag);
            });
        {
          std::lock_guard<std::mutex> lock(mu);
          ids.push_back(id);
        }
        cv.notify_one();
      }
    });
  }

  uint64_t took_ok = 0;
  uint64_t took_deadline = 0;
  std::thread consumer([&] {
    for (int taken = 0; taken < kTotal; ++taken) {
      CallId id;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !ids.empty() || producers_done; });
        ASSERT_FALSE(ids.empty());
        id = ids.front();
        ids.pop_front();
      }
      CallResult r = pump.TakeBlocking(id);
      if (r.status.ok()) {
        ++took_ok;
      } else {
        ASSERT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
            << r.status.ToString();
        ++took_deadline;
      }
    }
  });

  for (auto& t : producers) t.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    producers_done = true;
  }
  cv.notify_all();
  consumer.join();

  EXPECT_EQ(took_ok + took_deadline, static_cast<uint64_t>(kTotal));
  ReqPumpStats stats = pump.stats();
  EXPECT_EQ(stats.registered, static_cast<uint64_t>(kTotal));
  // `completed` counts every resolution, timeouts included.
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.timed_out, took_deadline);
  EXPECT_LE(stats.max_in_flight, 6u);
  // Every result was taken: nothing left in ReqPumpHash.
  EXPECT_EQ(pump.pending_results(), 0u);
  // Timing ledger: at quiescence every registered call was resolved
  // exactly once, only dispatched calls accrued time, and the accrued
  // durations are sane.
  EXPECT_EQ(stats.registered, stats.completed + stats.cancelled + stats.shed);
  EXPECT_LE(stats.dispatched, stats.registered);
  EXPECT_GE(stats.queue_wait_micros_total, 0);
  // Limits force queueing (6 slots, 240 calls), so some call must have
  // measurably waited, and every dispatched call was in flight for at
  // least its simulated round-trip.
  EXPECT_GT(stats.queue_wait_micros_total, 0);
  EXPECT_GT(stats.in_flight_micros_total, 0);
}

// Polling consumer: TryTake + WaitForCompletionBeyond race against the
// producers, then Drain() settles whatever is left.
TEST(ReqPumpStressTest, PollingConsumerThenDrain) {
  constexpr int kProducers = 3;
  constexpr int kCallsPerProducer = 50;
  constexpr int kTotal = kProducers * kCallsPerProducer;

  ReqPump::Limits limits;
  limits.max_global = 8;
  ReqPump pump(limits);

  std::mutex mu;
  std::vector<CallId> ids;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(7 + p);
      for (int i = 0; i < kCallsPerProducer; ++i) {
        int64_t delay = 50 + static_cast<int64_t>(rng.Uniform(1200));
        CallId id =
            pump.Register("engine", [delay](CallCompletion done) {
              CompleteLater(std::move(done), delay, 0);
            });
        std::lock_guard<std::mutex> lock(mu);
        ids.push_back(id);
      }
    });
  }

  std::atomic<int> taken{0};
  std::thread consumer([&] {
    std::vector<CallId> pending;
    while (taken.load() < kTotal) {
      // The sequence number first: a call registered and completed
      // after the snapshot below then moves it, and the wait returns.
      uint64_t seq = pump.completion_seq();
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.assign(ids.begin(), ids.end());
      }
      bool progressed = false;
      for (CallId id : pending) {
        CallResult r;
        if (pump.TryTake(id, &r)) {
          EXPECT_TRUE(r.status.ok()) << r.status.ToString();
          std::lock_guard<std::mutex> lock(mu);
          ids.erase(std::find(ids.begin(), ids.end(), id));
          ++taken;
          progressed = true;
        }
      }
      if (!progressed && taken.load() < kTotal) {
        pump.WaitForCompletionBeyond(seq);
      }
    }
  });

  for (auto& t : producers) t.join();
  consumer.join();
  pump.Drain();

  EXPECT_EQ(taken.load(), kTotal);
  ReqPumpStats stats = pump.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(pump.in_flight(), 0);
  // Ledger balance after Drain: everything registered is accounted for.
  EXPECT_EQ(stats.registered, stats.completed + stats.cancelled + stats.shed);
  EXPECT_EQ(stats.dispatched, static_cast<uint64_t>(kTotal));
  // Every call slept >= 50 us in flight.
  EXPECT_GE(stats.in_flight_micros_total, 50 * kTotal);
  EXPECT_GE(stats.queue_wait_micros_total, 0);
}

// Destroy the pump while calls are dispatched, queued, and timing out.
// The destructor must wait for dispatched calls, cancel queued ones,
// and late completions landing after destruction must be discarded
// against the shared core without touching freed memory (the case TSan
// and ASan exist to catch).
TEST(ReqPumpStressTest, DestructionMidFlightDiscardsStragglers) {
  for (int round = 0; round < 8; ++round) {
    ReqPump::Limits limits;
    limits.max_global = 3;
    limits.default_timeout_micros = 1500;
    auto pump = std::make_unique<ReqPump>(limits);

    Rng rng(40 + round);
    for (int i = 0; i < 30; ++i) {
      // Many completions arrive well after the deadline — and, for the
      // later registrations, after the pump itself is gone.
      int64_t delay = 500 + static_cast<int64_t>(rng.Uniform(5000));
      pump->Register("slow", [delay](CallCompletion done) {
        CompleteLater(std::move(done), delay, 0);
      });
    }
    // Let a few deadlines fire, then tear down mid-flight.
    std::this_thread::sleep_for(std::chrono::microseconds(2000));
    pump.reset();
  }
  // Give the last stragglers time to land on the dead cores before the
  // test binary exits (nothing to assert — the sanitizers judge this).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace wsq
