#include "dsq/dsq_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

class DsqEngineTest : public ::testing::Test {
 protected:
  static DemoEnv& Env() {
    static DemoEnv* const kEnv = [] {
      DemoOptions opt;
      opt.corpus.num_documents = 6000;
      opt.latency = LatencyModel::Instant();
      return new DemoEnv(opt);
    }();
    return *kEnv;
  }

  DsqEngine MakeEngine() {
    return DsqEngine(&Env().db(), &Env().altavista_service());
  }
};

TEST_F(DsqEngineTest, ScubaDivingFindsCoastalStates) {
  DsqEngine dsq = MakeEngine();
  auto r = dsq.Explain("scuba diving", {"States.Name"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->terms.empty());
  // Florida leads — the planted correlation (paper §1's example).
  EXPECT_EQ(r->terms[0].term, "Florida");
  std::set<std::string> top3;
  for (size_t i = 0; i < 3 && i < r->terms.size(); ++i) {
    top3.insert(r->terms[i].term);
  }
  EXPECT_TRUE(top3.count("Hawaii"));
  EXPECT_EQ(r->external_calls, 50u);  // one call per state
}

TEST_F(DsqEngineTest, MultipleSourceColumns) {
  DsqEngine dsq = MakeEngine();
  auto r = dsq.Explain("scuba diving", {"States.Name", "Movies.Title"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->external_calls, 60u);  // 50 states + 10 movies
  // Both sources contribute to the top ranks.
  std::set<std::string> sources;
  for (const auto& t : r->terms) sources.insert(t.source);
  EXPECT_TRUE(sources.count("States.Name"));
  EXPECT_TRUE(sources.count("Movies.Title"));
  // The planted diving movie ranks.
  bool deep_descent = false;
  for (const auto& t : r->terms) {
    if (t.term == "Deep Descent") deep_descent = true;
  }
  EXPECT_TRUE(deep_descent);
}

TEST_F(DsqEngineTest, PairsFindStateMovieTriples) {
  DsqEngine dsq = MakeEngine();
  DsqEngine::Options opt;
  opt.include_pairs = true;
  opt.pair_seed_terms = 3;
  auto r = dsq.Explain("scuba diving", {"States.Name", "Movies.Title"},
                       opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 60 singles + 3x3 pairs.
  EXPECT_EQ(r->external_calls, 69u);
  ASSERT_FALSE(r->pairs.empty());
  // The planted Florida/Deep-Descent triple surfaces
  // ("an underwater thriller filmed in Florida", §1).
  bool found = false;
  for (const auto& p : r->pairs) {
    if ((p.term_a == "Florida" && p.term_b == "Deep Descent") ||
        (p.term_a == "Deep Descent" && p.term_b == "Florida")) {
      found = true;
      EXPECT_GT(p.count, 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DsqEngineTest, CountsAreRankedDescending) {
  DsqEngine dsq = MakeEngine();
  auto r = dsq.Explain("four corners", {"States.Name"});
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->terms.size(); ++i) {
    EXPECT_GE(r->terms[i - 1].count, r->terms[i].count);
  }
  ASSERT_GE(r->terms.size(), 4u);
  EXPECT_EQ(r->terms[0].term, "Colorado");
}

TEST_F(DsqEngineTest, ZeroCountsDropped) {
  DsqEngine dsq = MakeEngine();
  auto r = dsq.Explain("Knuth", {"Sigs.Name"});
  ASSERT_TRUE(r.ok());
  for (const auto& t : r->terms) {
    EXPECT_GT(t.count, 0) << t.term;
  }
  ASSERT_FALSE(r->terms.empty());
  EXPECT_EQ(r->terms[0].term, "SIGACT");
}

TEST_F(DsqEngineTest, ZeroCountsKeptWhenRequested) {
  DsqEngine dsq = MakeEngine();
  DsqEngine::Options opt;
  opt.drop_zero_counts = false;
  opt.top_k = 37;
  auto r = dsq.Explain("Knuth", {"Sigs.Name"}, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->terms.size(), 37u);
}

TEST_F(DsqEngineTest, InvalidInputsRejected) {
  DsqEngine dsq = MakeEngine();
  EXPECT_FALSE(dsq.Explain("", {"States.Name"}).ok());
  EXPECT_FALSE(dsq.Explain("x", {}).ok());
  EXPECT_FALSE(dsq.Explain("x", {"States"}).ok());
  EXPECT_FALSE(dsq.Explain("x", {"Missing.Name"}).ok());
  EXPECT_FALSE(dsq.Explain("x", {"States.Nope"}).ok());
  // Non-string column.
  EXPECT_FALSE(dsq.Explain("x", {"States.Population"}).ok());
}

TEST_F(DsqEngineTest, TopKTruncates) {
  DsqEngine dsq = MakeEngine();
  DsqEngine::Options opt;
  opt.top_k = 3;
  opt.drop_zero_counts = false;
  auto r = dsq.Explain("computer", {"States.Name"}, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->terms.size(), 3u);
}

// Fails the first request at once and holds every later one until
// Release() (or destruction), answering it with a count of 1.
class FirstFailsService : public SearchService {
 public:
  ~FirstFailsService() override { Release(); }

  const std::string& name() const override { return name_; }

  void Submit(SearchRequest request, SearchCallback done) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queries_.push_back(request.query);
      if (queries_.size() > 1) {
        held_.push_back(std::move(done));
        return;
      }
    }
    SearchResponse failed;
    failed.status = Status::Unavailable("first request fails");
    done(std::move(failed));
  }

  void Release() {
    std::vector<SearchCallback> held;
    {
      std::lock_guard<std::mutex> lock(mu_);
      held.swap(held_);
    }
    for (SearchCallback& done : held) {
      SearchResponse resp;
      resp.count = 1;
      done(std::move(resp));
    }
  }

  std::vector<std::string> queries() {
    std::lock_guard<std::mutex> lock(mu_);
    return queries_;
  }

 private:
  const std::string name_ = "FirstFails";
  std::mutex mu_;
  std::vector<std::string> queries_;
  std::vector<SearchCallback> held_;
};

TEST_F(DsqEngineTest, FirstFailedCallEndsExplainWithoutWaiting) {
  // The held requests are released once Explain returns, or after 1 s
  // if it waits for them.
  FirstFailsService service;
  std::mutex mu;
  std::condition_variable cv;
  bool explained = false;
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(1), [&] { return explained; });
    service.Release();
  });
  ReqPump* pump = Env().db().pump();
  size_t pending_before = pump->pending_results();
  DsqEngine dsq(&Env().db(), &service);
  Stopwatch timer;
  auto r = dsq.Explain("scuba diving", {"States.Name"});
  int64_t elapsed = timer.ElapsedMicros();
  size_t pending_after = pump->pending_results();
  {
    std::lock_guard<std::mutex> lock(mu);
    explained = true;
  }
  cv.notify_one();
  releaser.join();

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(elapsed, 500000);
  EXPECT_EQ(pending_after, pending_before);
  // One request per state, spelled "<term> near <phrase>".
  std::vector<std::string> queries = service.queries();
  EXPECT_EQ(queries.size(), 50u);
  EXPECT_NE(std::find(queries.begin(), queries.end(),
                      "Florida near scuba diving"),
            queries.end());
}

}  // namespace
}  // namespace wsq
