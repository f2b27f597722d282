// Flight recorder: recording/snapshot semantics, query-id binding,
// string interning, event rendering, and the seqlock protocol under
// concurrent writers + snapshots (run under TSan in CI). Postmortems
// built from its slices are tested in query_log_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"

namespace wsq {
namespace {

// The recorder is process-global and other tests record into it too, so
// every test here tags its events with a query id unique to this file
// and filters with EventsForQuery.

TEST(FlightRecorderTest, RecordedEventsAreVisibleInSnapshots) {
  FlightRecorder* recorder = FlightRecorder::Global();
  const uint64_t qid = 990001;
  uint64_t before = recorder->recorded_total();
  recorder->Record(FrEventType::kCallDispatch, "AltaVista", "", qid,
                   /*a=*/3);
  recorder->Record(FrEventType::kCallFailed, "AltaVista",
                   "DeadlineExceeded", qid, /*a=*/3);
  EXPECT_EQ(recorder->recorded_total(), before + 2);

  std::vector<FrEvent> events = recorder->EventsForQuery(qid);
  ASSERT_EQ(events.size(), 2u);
  // Ordered by (timestamp, sequence): dispatch precedes failure.
  EXPECT_EQ(events[0].type, FrEventType::kCallDispatch);
  EXPECT_EQ(events[0].destination, "AltaVista");
  EXPECT_EQ(events[0].a, 3);
  EXPECT_EQ(events[1].type, FrEventType::kCallFailed);
  EXPECT_EQ(events[1].cause, "DeadlineExceeded");
  EXPECT_LT(events[0].sequence, events[1].sequence);

  FlightRecorderSnapshot snap = recorder->Snapshot();
  EXPECT_GE(snap.events.size(), 2u);
  EXPECT_GE(snap.rings, 1u);
  EXPECT_GE(snap.recorded_total, before + 2);
}

TEST(FlightRecorderTest, QueryIdBindingStampsAndNests) {
  FlightRecorder* recorder = FlightRecorder::Global();
  EXPECT_EQ(CurrentQueryId(), 0u);
  {
    QueryIdBinding outer(990010);
    EXPECT_EQ(CurrentQueryId(), 990010u);
    recorder->Record(FrEventType::kAdmissionWait, "", "");
    {
      QueryIdBinding inner(990011);
      EXPECT_EQ(CurrentQueryId(), 990011u);
      recorder->Record(FrEventType::kAdmissionWait, "", "");
    }
    // Nesting restores the previous binding.
    EXPECT_EQ(CurrentQueryId(), 990010u);
    // An explicit id beats the binding.
    recorder->Record(FrEventType::kAdmissionShed, "", "queue_full",
                     /*query_id=*/990012);
  }
  EXPECT_EQ(CurrentQueryId(), 0u);

  EXPECT_EQ(recorder->EventsForQuery(990010).size(), 1u);
  EXPECT_EQ(recorder->EventsForQuery(990011).size(), 1u);
  ASSERT_EQ(recorder->EventsForQuery(990012).size(), 1u);
  EXPECT_EQ(recorder->EventsForQuery(990012)[0].type,
            FrEventType::kAdmissionShed);
}

TEST(FlightRecorderTest, InterningIsStableAndSharedAcrossEvents) {
  FlightRecorder* recorder = FlightRecorder::Global();
  uint32_t id1 = recorder->InternForTest("shard-7");
  uint32_t id2 = recorder->InternForTest("shard-7");
  EXPECT_EQ(id1, id2);
  EXPECT_NE(id1, 0u);
  EXPECT_EQ(recorder->ResolveForTest(id1), "shard-7");
  // Id 0 is reserved for the empty string.
  EXPECT_EQ(recorder->InternForTest(""), 0u);
  EXPECT_EQ(recorder->ResolveForTest(0), "");
  // Out-of-range ids resolve to empty rather than crashing.
  EXPECT_EQ(recorder->ResolveForTest(0xFFFFFFFF), "");
}

TEST(FlightRecorderTest, ToLineRendersDeterministicFields) {
  FrEvent e;
  e.timestamp_micros = 1734;
  e.type = FrEventType::kHedgeFire;
  e.query_id = 42;
  e.destination = "shard-1";
  e.cause = "slow_primary";
  e.a = 2;
  EXPECT_EQ(e.ToLine(/*base_micros=*/1000),
            "t=+734us hedge_fire qid=42 dest=shard-1 cause=slow_primary a=2");
  // Zero/empty fields are omitted.
  FrEvent bare;
  bare.timestamp_micros = 5;
  bare.type = FrEventType::kQueryBegin;
  EXPECT_EQ(bare.ToLine(), "t=+5us query_begin");
}

TEST(FlightRecorderTest, EveryEventTypeHasAName) {
  for (int t = 0; t <= static_cast<int>(FrEventType::kWalCheckpoint); ++t) {
    EXPECT_NE(FrEventTypeName(static_cast<FrEventType>(t)), "unknown")
        << "type " << t;
  }
}

TEST(FlightRecorderTest, ConcurrentWritersVersusSnapshotDuringWrap) {
  // Writers push several ring generations each while a reader snapshots
  // continuously: exercises the per-slot seqlock (torn slots must be
  // dropped, never misreported) and ring registration. TSan covers the
  // memory-order claims via the CI obs job.
  FlightRecorder* recorder = FlightRecorder::Global();
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter =
      static_cast<int>(FlightRing::kSlots) * 3;
  const uint64_t qid_base = 991000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> malformed{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      FlightRecorderSnapshot snap = recorder->Snapshot();
      for (const FrEvent& e : snap.events) {
        // A surviving (non-torn) slot must be internally consistent.
        if (e.sequence == 0 ||
            e.type > FrEventType::kWalCheckpoint) {
          malformed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const uint64_t qid = qid_base + static_cast<uint64_t>(w);
      for (int i = 0; i < kEventsPerWriter; ++i) {
        recorder->Record(FrEventType::kShardLegOk, "shard-wrap", "", qid,
                         /*a=*/i);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(malformed.load(), 0u);
  // After the writers quiesce, each writer thread's ring holds its most
  // recent kSlots events; the final event of every writer must be
  // visible and untorn.
  for (int w = 0; w < kWriters; ++w) {
    std::vector<FrEvent> events =
        recorder->EventsForQuery(qid_base + static_cast<uint64_t>(w));
    ASSERT_FALSE(events.empty()) << "writer " << w;
    EXPECT_EQ(events.back().a, kEventsPerWriter - 1) << "writer " << w;
    EXPECT_LE(events.size(), FlightRing::kSlots);
  }
}

TEST(FlightRecorderTest, EventsForQueryIsTheFilteredSnapshot) {
  // Three threads interleave events of two queries (and of none) in
  // their own rings; EventsForQuery must return exactly the snapshot's
  // events for one query, decoded and in the same order.
  FlightRecorder* recorder = FlightRecorder::Global();
  const uint64_t qids[] = {992001, 992002};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([recorder, &qids, t] {
      for (int i = 0; i < 40; ++i) {
        uint64_t qid = qids[(i + t) % 2];
        recorder->Record(FrEventType::kCallDispatch,
                         t == 0 ? "AltaVista" : "Google",
                         i % 3 == 0 ? "retry" : "", qid, /*a=*/t, i);
        recorder->Record(FrEventType::kCallComplete, "", "", /*qid=*/0);
      }
    });
  }
  for (auto& t : threads) t.join();

  FlightRecorderSnapshot snap = recorder->Snapshot();
  for (uint64_t qid : qids) {
    std::vector<FrEvent> want;
    for (const FrEvent& e : snap.events) {
      if (e.query_id == qid) want.push_back(e);
    }
    std::vector<FrEvent> got = recorder->EventsForQuery(qid);
    ASSERT_EQ(got.size(), 60u) << qid;
    ASSERT_EQ(got.size(), want.size()) << qid;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ToLine(), want[i].ToLine()) << qid << " event " << i;
      EXPECT_EQ(got[i].sequence, want[i].sequence) << qid << " event " << i;
    }
  }
}

}  // namespace
}  // namespace wsq
