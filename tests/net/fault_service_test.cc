#include "net/fault_service.h"

#include <gtest/gtest.h>

#include <mutex>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/strings.h"

namespace wsq {
namespace {

/// Backend that always succeeds with a fixed count.
class OkService : public SearchService {
 public:
  explicit OkService(std::string name = "AltaVista")
      : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }

  void Submit(SearchRequest request, SearchCallback done) override {
    (void)request;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++served_;
    }
    done(SearchResponse{Status::OK(), 42, {}});
  }

  uint64_t served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }

 private:
  std::string name_;
  mutable std::mutex mu_;
  uint64_t served_ = 0;
};

SearchRequest CountRequest(const std::string& query) {
  SearchRequest req;
  req.kind = SearchRequest::Kind::kCount;
  req.query = query;
  return req;
}

TEST(FaultServiceTest, PassThroughWhenPlanIsEmpty) {
  OkService backend;
  FaultInjectingSearchService faulty(&backend, FaultPlan{});
  SearchResponse resp = faulty.Execute(CountRequest("databases"));
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.count, 42);
  EXPECT_EQ(faulty.stats().passed_through, 1u);
}

TEST(FaultServiceTest, TransientFaultsClearAfterConfiguredTries) {
  OkService backend;
  FaultPlan plan;
  plan.transient_rate = 1.0;  // every query draws a transient fault
  plan.transient_tries = 2;
  FaultInjectingSearchService faulty(&backend, plan);

  SearchRequest req = CountRequest("databases");
  for (int attempt = 0; attempt < 2; ++attempt) {
    SearchResponse resp = faulty.Execute(req);
    EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable) << attempt;
    EXPECT_TRUE(IsTransient(resp.status.code()));
  }
  // Third attempt of the SAME query passes through.
  SearchResponse resp = faulty.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(backend.served(), 1u);
  EXPECT_EQ(faulty.stats().injected_transient, 2u);
}

TEST(FaultServiceTest, PermanentFaultsNeverClear) {
  OkService backend;
  FaultPlan plan;
  plan.permanent_rate = 1.0;
  FaultInjectingSearchService faulty(&backend, plan);

  SearchRequest req = CountRequest("databases");
  for (int attempt = 0; attempt < 4; ++attempt) {
    SearchResponse resp = faulty.Execute(req);
    EXPECT_EQ(resp.status.code(), StatusCode::kExecutionError) << attempt;
    EXPECT_FALSE(IsTransient(resp.status.code()));
  }
  EXPECT_EQ(backend.served(), 0u);
  EXPECT_EQ(faulty.stats().injected_permanent, 4u);
}

TEST(FaultServiceTest, HungRequestsHeldUntilReleased) {
  OkService backend;
  FaultPlan plan;
  plan.hang_rate = 1.0;
  FaultInjectingSearchService faulty(&backend, plan);

  std::mutex mu;
  std::optional<SearchResponse> got;
  faulty.Submit(CountRequest("databases"), [&](SearchResponse resp) {
    std::lock_guard<std::mutex> lock(mu);
    got = std::move(resp);
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(got.has_value());  // callback parked, not invoked
  }
  EXPECT_EQ(faulty.hung_requests(), 1u);

  faulty.ReleaseHung();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(faulty.hung_requests(), 0u);
}

TEST(FaultServiceTest, DestructorReleasesHungRequests) {
  OkService backend;
  std::mutex mu;
  std::optional<SearchResponse> got;
  {
    FaultPlan plan;
    plan.hang_rate = 1.0;
    FaultInjectingSearchService faulty(&backend, plan);
    faulty.Submit(CountRequest("databases"), [&](SearchResponse resp) {
      std::lock_guard<std::mutex> lock(mu);
      got = std::move(resp);
    });
  }  // no deadlock; contract: every accepted request completes
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status.code(), StatusCode::kUnavailable);
}

TEST(FaultServiceTest, DelaysAddLatencyWithoutFailing) {
  OkService backend;
  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.delay_micros = 20000;
  FaultInjectingSearchService faulty(&backend, plan);

  Stopwatch timer;
  SearchResponse resp = faulty.Execute(CountRequest("databases"));
  ASSERT_TRUE(resp.status.ok());
  EXPECT_GE(timer.ElapsedMicros(), 20000);
  EXPECT_EQ(faulty.stats().injected_delays, 1u);
}

TEST(FaultServiceTest, OutageWindowFailsConsecutiveArrivals) {
  OkService backend;
  FaultPlan plan;
  plan.outage_start = 2;
  plan.outage_length = 3;  // arrivals 2, 3, 4 fail
  FaultInjectingSearchService faulty(&backend, plan);

  for (int i = 1; i <= 6; ++i) {
    SearchResponse resp =
        faulty.Execute(CountRequest("query" + std::to_string(i)));
    bool in_outage = i >= 2 && i <= 4;
    if (in_outage) {
      EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable) << i;
    } else {
      EXPECT_TRUE(resp.status.ok()) << i;
    }
  }
  EXPECT_EQ(faulty.stats().outage_failures, 3u);
  EXPECT_EQ(backend.served(), 3u);
}

TEST(FaultServiceTest, FaultDecisionsAreDeterministicPerSeed) {
  OkService backend;
  FaultPlan plan;
  plan.seed = 123;
  plan.permanent_rate = 0.2;
  plan.hang_rate = 0.0;  // hangs would need releasing; not under test
  plan.transient_rate = 0.3;
  plan.transient_tries = 1000;  // never clears within this test

  auto outcome_map = [&](FaultPlan p) {
    FaultInjectingSearchService faulty(&backend, p);
    std::string out;
    for (int i = 0; i < 64; ++i) {
      SearchResponse resp =
          faulty.Execute(CountRequest("term" + std::to_string(i)));
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

TEST(FaultServiceTest, RatesPartitionTheQuerySpace) {
  // With disjoint bands summing to 1, every query draws exactly one
  // fault kind and nothing passes through.
  OkService backend;
  FaultPlan plan;
  plan.permanent_rate = 0.5;
  plan.transient_rate = 0.5;
  plan.transient_tries = 1000;
  FaultInjectingSearchService faulty(&backend, plan);

  for (int i = 0; i < 32; ++i) {
    SearchResponse resp =
        faulty.Execute(CountRequest(StrFormat("w%d", i)));
    EXPECT_FALSE(resp.status.ok()) << i;
  }
  FaultStats stats = faulty.stats();
  EXPECT_EQ(stats.injected_permanent + stats.injected_transient, 32u);
  EXPECT_EQ(stats.passed_through, 0u);
  EXPECT_EQ(backend.served(), 0u);
}

}  // namespace
}  // namespace wsq
