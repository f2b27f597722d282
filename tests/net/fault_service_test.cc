// Fault injection on the simulated search node: a FaultPlan set as
// SimulatedSearchService::Options::faults. "Served" below is what
// reached the engine: completed_requests once the node is quiesced.

#include <gtest/gtest.h>

#include <mutex>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/strings.h"
#include "net/simulated_service.h"

namespace wsq {
namespace {

class FaultServiceTest : public ::testing::Test {
 protected:
  static const Corpus& TestCorpus() {
    static const Corpus* const kCorpus = [] {
      CorpusConfig cfg;
      cfg.num_documents = 300;
      cfg.vocab_size = 200;
      cfg.seed = 5;
      return new Corpus(Corpus::Generate(
          cfg, {{"colorado", 3.0}, {"utah", 1.0}}));
    }();
    return *kCorpus;
  }

  static const SearchEngine& Engine() {
    static const SearchEngine* const kEngine = [] {
      SearchEngineConfig cfg;
      cfg.name = "AltaVista";
      return new SearchEngine(&TestCorpus(), cfg);
    }();
    return *kEngine;
  }
};

SimulatedSearchService::Options FaultyOptions(const FaultPlan& plan) {
  SimulatedSearchService::Options opt;
  opt.latency = LatencyModel::Instant();
  opt.faults = plan;
  return opt;
}

SearchRequest CountRequest(const std::string& query) {
  SearchRequest req;
  req.kind = SearchRequest::Kind::kCount;
  req.query = query;
  return req;
}

TEST_F(FaultServiceTest, PassThroughWhenPlanIsEmpty) {
  SimulatedSearchService svc(&Engine(), FaultyOptions(FaultPlan{}));
  SearchResponse resp = svc.Execute(CountRequest("colorado"));
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.count, *Engine().Count("colorado"));
  svc.Quiesce();
  SimulatedServiceStats stats = svc.stats();
  EXPECT_EQ(stats.total_requests, 1u);
  EXPECT_EQ(stats.completed_requests, 1u);
}

TEST_F(FaultServiceTest, TransientFaultsClearAfterConfiguredTries) {
  FaultPlan plan;
  plan.transient_rate = 1.0;  // every query draws a transient fault
  plan.transient_tries = 2;
  SimulatedSearchService svc(&Engine(), FaultyOptions(plan));

  SearchRequest req = CountRequest("colorado");
  for (int attempt = 0; attempt < 2; ++attempt) {
    SearchResponse resp = svc.Execute(req);
    EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable) << attempt;
    EXPECT_TRUE(IsTransient(resp.status.code()));
  }
  // Third attempt of the SAME query is served.
  SearchResponse resp = svc.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  svc.Quiesce();
  EXPECT_EQ(svc.stats().completed_requests, 1u);
  EXPECT_EQ(svc.stats().injected_transient, 2u);
}

TEST_F(FaultServiceTest, PermanentFaultsNeverClear) {
  FaultPlan plan;
  plan.permanent_rate = 1.0;
  SimulatedSearchService svc(&Engine(), FaultyOptions(plan));

  SearchRequest req = CountRequest("colorado");
  for (int attempt = 0; attempt < 4; ++attempt) {
    SearchResponse resp = svc.Execute(req);
    EXPECT_EQ(resp.status.code(), StatusCode::kExecutionError) << attempt;
    EXPECT_FALSE(IsTransient(resp.status.code()));
  }
  svc.Quiesce();
  EXPECT_EQ(svc.stats().completed_requests, 0u);
  EXPECT_EQ(svc.stats().injected_permanent, 4u);
}

TEST_F(FaultServiceTest, HungRequestsHeldUntilReleased) {
  FaultPlan plan;
  plan.hang_rate = 1.0;
  SimulatedSearchService svc(&Engine(), FaultyOptions(plan));

  std::mutex mu;
  std::optional<SearchResponse> got;
  svc.Submit(CountRequest("colorado"), [&](SearchResponse resp) {
    std::lock_guard<std::mutex> lock(mu);
    got = std::move(resp);
  });
  svc.Quiesce();  // returns with the hung request still parked
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(got.has_value());  // callback parked, not invoked
  }
  EXPECT_EQ(svc.hung_requests(), 1u);

  svc.ReleaseHung();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(svc.hung_requests(), 0u);
}

TEST_F(FaultServiceTest, DestructorReleasesHungRequests) {
  std::mutex mu;
  std::optional<SearchResponse> got;
  {
    FaultPlan plan;
    plan.hang_rate = 1.0;
    SimulatedSearchService svc(&Engine(), FaultyOptions(plan));
    svc.Submit(CountRequest("colorado"), [&](SearchResponse resp) {
      std::lock_guard<std::mutex> lock(mu);
      got = std::move(resp);
    });
  }  // no deadlock; contract: every accepted request completes
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status.code(), StatusCode::kUnavailable);
}

TEST_F(FaultServiceTest, DelaysAddLatencyWithoutFailing) {
  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.delay_micros = 20000;
  SimulatedSearchService svc(&Engine(), FaultyOptions(plan));

  Stopwatch timer;
  SearchResponse resp = svc.Execute(CountRequest("colorado"));
  ASSERT_TRUE(resp.status.ok());
  EXPECT_GE(timer.ElapsedMicros(), 20000);
  EXPECT_EQ(svc.stats().injected_delays, 1u);
}

TEST_F(FaultServiceTest, OutageWindowFailsConsecutiveArrivals) {
  FaultPlan plan;
  plan.outage_start = 2;
  plan.outage_length = 3;  // arrivals 2, 3, 4 fail
  SimulatedSearchService svc(&Engine(), FaultyOptions(plan));

  for (int i = 1; i <= 6; ++i) {
    SearchResponse resp =
        svc.Execute(CountRequest("query" + std::to_string(i)));
    bool in_outage = i >= 2 && i <= 4;
    if (in_outage) {
      EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable) << i;
    } else {
      EXPECT_TRUE(resp.status.ok()) << i;
    }
  }
  svc.Quiesce();
  EXPECT_EQ(svc.stats().outage_failures, 3u);
  EXPECT_EQ(svc.stats().completed_requests, 3u);
}

TEST_F(FaultServiceTest, FaultDecisionsAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 123;
  plan.permanent_rate = 0.2;
  plan.hang_rate = 0.0;  // hangs would need releasing; not under test
  plan.transient_rate = 0.3;
  plan.transient_tries = 1000;  // never clears within this test

  auto outcome_map = [&](const FaultPlan& p) {
    SimulatedSearchService svc(&Engine(), FaultyOptions(p));
    std::string out;
    for (int i = 0; i < 64; ++i) {
      SearchResponse resp =
          svc.Execute(CountRequest("term" + std::to_string(i)));
      if (resp.status.ok()) {
        out += 'o';
      } else if (resp.status.code() == StatusCode::kUnavailable) {
        out += 't';
      } else {
        out += 'p';
      }
    }
    return out;
  };

  std::string first = outcome_map(plan);
  std::string second = outcome_map(plan);
  EXPECT_EQ(first, second);  // same seed → identical fault pattern
  // The plan actually injected a mix of fault kinds.
  EXPECT_NE(first.find('o'), std::string::npos);
  EXPECT_NE(first.find('t'), std::string::npos);
  EXPECT_NE(first.find('p'), std::string::npos);

  FaultPlan other = plan;
  other.seed = 456;
  EXPECT_NE(outcome_map(other), first);  // different seed → different
}

TEST_F(FaultServiceTest, RatesPartitionTheQuerySpace) {
  // With disjoint bands summing to 1, every query draws exactly one
  // fault kind and nothing is served.
  FaultPlan plan;
  plan.permanent_rate = 0.5;
  plan.transient_rate = 0.5;
  plan.transient_tries = 1000;
  SimulatedSearchService svc(&Engine(), FaultyOptions(plan));

  for (int i = 0; i < 32; ++i) {
    SearchResponse resp = svc.Execute(CountRequest(StrFormat("w%d", i)));
    EXPECT_FALSE(resp.status.ok()) << i;
  }
  svc.Quiesce();
  SimulatedServiceStats stats = svc.stats();
  EXPECT_EQ(stats.injected_permanent + stats.injected_transient, 32u);
  EXPECT_EQ(stats.completed_requests, 0u);
}

}  // namespace
}  // namespace wsq
