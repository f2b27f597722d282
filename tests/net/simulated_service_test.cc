#include "net/simulated_service.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/clock.h"

namespace wsq {
namespace {

class SimulatedServiceTest : public ::testing::Test {
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

TEST_F(SimulatedServiceTest, LatencyModelSampling) {
  Rng rng(1);
  LatencyModel m{1000, 200, 0.0, 1.0};
  for (int i = 0; i < 200; ++i) {
    int64_t s = m.SampleMicros(rng);
    EXPECT_GE(s, 800);
    EXPECT_LE(s, 1200);
  }
  LatencyModel inst = LatencyModel::Instant();
  EXPECT_EQ(inst.SampleMicros(rng), 0);
  LatencyModel fixed = LatencyModel::Fixed(777);
  EXPECT_EQ(fixed.SampleMicros(rng), 777);
}

TEST_F(SimulatedServiceTest, HeavyTailSampling) {
  Rng rng(2);
  LatencyModel m{1000, 0, 0.5, 4.0};
  int tails = 0;
  for (int i = 0; i < 1000; ++i) {
    int64_t s = m.SampleMicros(rng);
    if (s == 4000) {
      ++tails;
    } else {
      EXPECT_EQ(s, 1000);
    }
  }
  EXPECT_NEAR(tails, 500, 80);
}

TEST_F(SimulatedServiceTest, CountRequestMatchesEngine) {
  SimulatedSearchService::Options opt;
  opt.latency = LatencyModel::Fixed(2000);
  SimulatedSearchService svc(&Engine(), opt);

  SearchRequest req;
  req.kind = SearchRequest::Kind::kCount;
  req.query = "colorado";
  SearchResponse resp = svc.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.count, *Engine().Count("colorado"));
}

TEST_F(SimulatedServiceTest, TopKRequestMatchesEngine) {
  SimulatedSearchService::Options opt;
  opt.latency = LatencyModel::Instant();
  SimulatedSearchService svc(&Engine(), opt);

  SearchRequest req;
  req.kind = SearchRequest::Kind::kTopK;
  req.query = "colorado";
  req.k = 3;
  SearchResponse resp = svc.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  auto direct = *Engine().Search("colorado", 3);
  ASSERT_EQ(resp.hits.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(resp.hits[i].url, direct[i].url);
  }
}

TEST_F(SimulatedServiceTest, ErrorsPropagate) {
  SimulatedSearchService::Options opt;
  opt.latency = LatencyModel::Instant();
  SimulatedSearchService svc(&Engine(), opt);
  SearchRequest req;
  req.query = "";  // empty query is invalid
  SearchResponse resp = svc.Execute(req);
  EXPECT_FALSE(resp.status.ok());
}

TEST_F(SimulatedServiceTest, LatencyIsActuallySimulated) {
  SimulatedSearchService::Options opt;
  opt.latency = LatencyModel::Fixed(30000);  // 30 ms
  SimulatedSearchService svc(&Engine(), opt);
  SearchRequest req;
  req.query = "utah";
  Stopwatch timer;
  svc.Execute(req);
  EXPECT_GE(timer.ElapsedMicros(), 25000);
}

TEST_F(SimulatedServiceTest, ConcurrentRequestsOverlap) {
  // 20 requests of 30 ms with unbounded capacity should take ~30 ms,
  // not ~600 ms.
  SimulatedSearchService::Options opt;
  opt.latency = LatencyModel::Fixed(30000);
  SimulatedSearchService svc(&Engine(), opt);

  std::atomic<int> done{0};
  Stopwatch timer;
  for (int i = 0; i < 20; ++i) {
    SearchRequest req;
    req.query = "colorado";
    svc.Submit(req, [&](SearchResponse) { ++done; });
  }
  svc.Quiesce();
  EXPECT_EQ(done.load(), 20);
  EXPECT_LT(timer.ElapsedMicros(), 300000);  // far below serial 600 ms
  EXPECT_EQ(svc.stats().completed_requests, 20u);
  EXPECT_GT(svc.stats().max_concurrent, 10u);
}

TEST_F(SimulatedServiceTest, ServerCapacitySerializesExcess) {
  // 8 requests of 20 ms through capacity 2 must take >= 4*20 ms.
  SimulatedSearchService::Options opt;
  opt.latency = LatencyModel::Fixed(20000);
  opt.server_capacity = 2;
  SimulatedSearchService svc(&Engine(), opt);

  std::atomic<int> done{0};
  Stopwatch timer;
  for (int i = 0; i < 8; ++i) {
    SearchRequest req;
    req.query = "utah";
    svc.Submit(req, [&](SearchResponse) { ++done; });
  }
  svc.Quiesce();
  EXPECT_EQ(done.load(), 8);
  EXPECT_GE(timer.ElapsedMicros(), 75000);
}

TEST_F(SimulatedServiceTest, ShutdownCompletesPendingRequests) {
  std::atomic<int> done{0};
  {
    SimulatedSearchService::Options opt;
    opt.latency = LatencyModel::Fixed(5000000);  // 5 s — never waited out
    SimulatedSearchService svc(&Engine(), opt);
    for (int i = 0; i < 5; ++i) {
      SearchRequest req;
      req.query = "utah";
      svc.Submit(req, [&](SearchResponse resp) {
        if (resp.status.ok()) ++done;
      });
    }
    // Destructor must fire all callbacks without waiting 5 seconds.
  }
  EXPECT_EQ(done.load(), 5);
}

TEST_F(SimulatedServiceTest, CacheKeyDistinguishesRequests) {
  SearchRequest a{SearchRequest::Kind::kCount, "colorado", 20, {}};
  SearchRequest b{SearchRequest::Kind::kTopK, "colorado", 20, {}};
  SearchRequest c{SearchRequest::Kind::kTopK, "colorado", 5, {}};
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  EXPECT_NE(b.CacheKey(), c.CacheKey());
  EXPECT_EQ(a.CacheKey(),
            (SearchRequest{SearchRequest::Kind::kCount, "colorado", 20, {}}
                 .CacheKey()));
}

}  // namespace
}  // namespace wsq
