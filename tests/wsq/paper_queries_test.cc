#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

// Section 3.1's six example queries, executed end-to-end against the
// synthetic Web. We assert the *shapes* the paper reports, not absolute
// numbers (DESIGN.md E9).
class PaperQueriesTest : public ::testing::Test {
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

  ResultSet Must(const std::string& sql, bool async = true) {
    auto r = Env().Run(sql, async);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    return r.ok() ? std::move(r->result) : ResultSet{};
  }

  static std::map<std::string, int64_t> ToMap(const ResultSet& r) {
    std::map<std::string, int64_t> out;
    for (const Row& row : r.rows) {
      out[row.value(0).AsString()] = row.value(1).AsInt();
    }
    return out;
  }
};

TEST_F(PaperQueriesTest, Query1RankStatesByMentions) {
  ResultSet r = Must(
      "Select Name, Count From States, WebCount "
      "Where Name = T1 Order By Count Desc");
  ASSERT_EQ(r.rows.size(), 50u);
  // Counts are non-increasing.
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1].value(1).AsInt(),
              r.rows[i].value(1).AsInt());
  }
  // The paper's top-5 prominence states dominate our synthetic Web too.
  std::set<std::string> top5;
  for (size_t i = 0; i < 5; ++i) {
    top5.insert(r.rows[i].value(0).AsString());
  }
  EXPECT_TRUE(top5.count("California")) << r.ToString(10);
  EXPECT_TRUE(top5.count("Washington")) << r.ToString(10);
  EXPECT_TRUE(top5.count("New York")) << r.ToString(10);
  EXPECT_TRUE(top5.count("Texas")) << r.ToString(10);
}

TEST_F(PaperQueriesTest, Query2NormalizedByPopulation) {
  // Integer division (Count/Population) over our smaller corpus is
  // always 0, so scale the ratio the way the paper's magnitudes did:
  // counts are ~millions over ~millions there, hits-per-million here.
  ResultSet r = Must(
      "Select Name, Count * 1000000 / Population As C "
      "From States, WebCount Where Name = T1 Order By C Desc");
  ASSERT_EQ(r.rows.size(), 50u);
  std::set<std::string> top5;
  for (size_t i = 0; i < 5; ++i) {
    top5.insert(r.rows[i].value(0).AsString());
  }
  // Paper: Alaska, Washington, Delaware, Hawaii, Wyoming lead.
  EXPECT_TRUE(top5.count("Alaska")) << r.ToString(10);
  EXPECT_TRUE(top5.count("Wyoming")) << r.ToString(10);
  // Big states fall to the bottom half.
  std::vector<std::string> bottom;
  for (size_t i = 25; i < 50; ++i) {
    bottom.push_back(r.rows[i].value(0).AsString());
  }
  EXPECT_NE(std::find(bottom.begin(), bottom.end(), "California"),
            bottom.end())
      << r.ToString(50);
}

TEST_F(PaperQueriesTest, Query3FourCornersDropoff) {
  ResultSet r = Must(
      "Select Name, Count From States, WebCount "
      "Where Name = T1 and T2 = 'four corners' Order By Count Desc");
  ASSERT_EQ(r.rows.size(), 50u);
  // The four corners states fill the top four ranks...
  std::set<std::string> top4;
  for (size_t i = 0; i < 4; ++i) {
    top4.insert(r.rows[i].value(0).AsString());
  }
  EXPECT_EQ(top4, (std::set<std::string>{"Colorado", "New Mexico",
                                         "Arizona", "Utah"}))
      << r.ToString(8);
  // ...with the paper's dropoff to rank five (994 vs 215 there; the
  // smaller synthetic corpus shows the same cliff at lower contrast).
  int64_t fourth = r.rows[3].value(1).AsInt();
  int64_t fifth = r.rows[4].value(1).AsInt();
  EXPECT_GT(2 * fourth, 3 * fifth) << r.ToString(8);
  EXPECT_GT(r.rows[0].value(1).AsInt(), 0);
}

TEST_F(PaperQueriesTest, Query4CapitalsBeatingStates) {
  ResultSet r = Must(
      "Select Capital, C.Count, Name, S.Count "
      "From States, WebCount C, WebCount S "
      "Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count "
      "Order By Capital");
  // Every returned capital genuinely outscores its state.
  for (const Row& row : r.rows) {
    EXPECT_GT(row.value(1).AsInt(), row.value(3).AsInt());
  }
  // The paper's six common-word capitals are all present.
  std::set<std::string> capitals;
  for (const Row& row : r.rows) {
    capitals.insert(row.value(0).AsString());
  }
  for (const char* expected :
       {"Atlanta", "Lincoln", "Boston", "Jackson", "Pierre",
        "Columbia"}) {
    EXPECT_TRUE(capitals.count(expected)) << expected << "\n"
                                          << r.ToString(20);
  }
}

TEST_F(PaperQueriesTest, Query5TopTwoUrlsPerState) {
  ResultSet r = Must(
      "Select Name, URL, Rank From States, WebPages "
      "Where Name = T1 and Rank <= 2 Order By Name, Rank");
  ASSERT_GT(r.rows.size(), 50u);  // most states have >= 2 URLs
  ASSERT_LE(r.rows.size(), 100u);
  std::map<std::string, std::vector<int64_t>> ranks;
  for (const Row& row : r.rows) {
    EXPECT_FALSE(row.value(1).AsString().empty());
    ranks[row.value(0).AsString()].push_back(row.value(2).AsInt());
  }
  for (const auto& [state, rs] : ranks) {
    ASSERT_LE(rs.size(), 2u) << state;
    EXPECT_EQ(rs[0], 1) << state;
    if (rs.size() == 2) {
      EXPECT_EQ(rs[1], 2) << state;
    }
  }
}

TEST_F(PaperQueriesTest, Query6EnginesAgreeOnSomeUrls) {
  ResultSet r = Must(
      "Select Name, AV.URL From States, WebPages_AV AV, "
      "WebPages_Google G "
      "Where Name = AV.T1 and Name = G.T1 and AV.Rank <= 5 and "
      "G.Rank <= 5 and AV.URL = G.URL Order By Name");
  // Paper: agreement is rare but non-empty (4 URLs out of 250).
  EXPECT_GT(r.rows.size(), 0u);
  EXPECT_LT(r.rows.size(), 100u);
  // Agreement is genuine: the URL really is in both engines' top 5.
  for (size_t i = 0; i < std::min<size_t>(r.rows.size(), 3); ++i) {
    const std::string& state = r.rows[i].value(0).AsString();
    const std::string& url = r.rows[i].value(1).AsString();
    auto av = *Env().altavista_engine().Search(ToLower(state), 5);
    auto g = *Env().google_engine().Search(ToLower(state), 5);
    bool in_av = false, in_g = false;
    for (const auto& h : av) in_av |= h.url == url;
    for (const auto& h : g) in_g |= h.url == url;
    EXPECT_TRUE(in_av && in_g) << state << " " << url;
  }
}

TEST_F(PaperQueriesTest, Section41SigsNearKnuth) {
  // §4.1 footnote 3: SIGACT, SIGPLAN, SIGGRAPH, SIGMOD, SIGCOMM,
  // SIGSAM in order; all other Sigs count 0.
  ResultSet r = Must(
      "Select Name, Count From Sigs, WebCount "
      "Where Name = T1 and T2 = 'Knuth' Order By Count Desc, Name");
  ASSERT_EQ(r.rows.size(), 37u);
  std::vector<std::string> nonzero;
  for (const Row& row : r.rows) {
    if (row.value(1).AsInt() > 0) {
      nonzero.push_back(row.value(0).AsString());
    }
  }
  // The planted six lead; order of the top entries matches the paper.
  ASSERT_GE(nonzero.size(), 4u) << r.ToString(10);
  EXPECT_EQ(nonzero[0], "SIGACT") << r.ToString(10);
  // The planted leaders occupy the top of the nonzero list (exact
  // order below rank 1 is subject to sampling noise at this corpus
  // size, as the paper's own footnote-2 caveat anticipates).
  std::set<std::string> planted = {"SIGACT", "SIGPLAN", "SIGGRAPH",
                                   "SIGMOD", "SIGCOMM", "SIGSAM"};
  for (size_t i = 0; i < 3 && i < nonzero.size(); ++i) {
    EXPECT_TRUE(planted.count(nonzero[i]))
        << nonzero[i] << "\n" << r.ToString(10);
  }
  std::set<std::string> seen(nonzero.begin(), nonzero.end());
  for (const char* sig : {"SIGACT", "SIGPLAN", "SIGGRAPH", "SIGMOD"}) {
    EXPECT_TRUE(seen.count(sig)) << sig << "\n" << r.ToString(10);
  }
}

TEST_F(PaperQueriesTest, AllQueriesAgreeAcrossExecutionModes) {
  const char* queries[] = {
      "Select Name, Count From States, WebCount Where Name = T1 "
      "Order By Count Desc, Name",
      "Select Name, Count From States, WebCount "
      "Where Name = T1 and T2 = 'four corners' "
      "Order By Count Desc, Name",
      "Select Capital, C.Count, Name, S.Count "
      "From States, WebCount C, WebCount S "
      "Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count "
      "Order By Capital",
      "Select Name, URL, Rank From States, WebPages "
      "Where Name = T1 and Rank <= 2 Order By Name, Rank",
      "Select Name, AV.URL From States, WebPages_AV AV, "
      "WebPages_Google G Where Name = AV.T1 and Name = G.T1 and "
      "AV.Rank <= 5 and G.Rank <= 5 and AV.URL = G.URL "
      "Order By Name, AV.URL",
  };
  for (const char* sql : queries) {
    ResultSet sync = Must(sql, /*async=*/false);
    ResultSet async = Must(sql, /*async=*/true);
    ASSERT_EQ(sync.rows.size(), async.rows.size()) << sql;
    for (size_t i = 0; i < sync.rows.size(); ++i) {
      ASSERT_EQ(sync.rows[i], async.rows[i]) << sql << " row " << i;
    }
  }
}

// §4.5.4 Example 2 (Fig. 7): a cross-product with R between two
// dependent joins sends |R| identical WebCount_Google searches per Sig.
// Asynchronous iteration fires them all before the first answer lands,
// and the pump joins each Sig's duplicates into one dispatch, so the
// pump dispatches one call per distinct search: 37 + 37 instead of
// 37 + 37 * |R|. Sequential iteration has one call out at a time, so
// nothing joins. The engines see those dispatches plus the pump's
// hedges of calls still out past their engine's p95. The cache is off
// throughout.
TEST(PaperFigure7Test, AsyncIterationJoinsTheDuplicateSearches) {
  constexpr uint64_t kSigs = 37;
  constexpr int kRSize = 4;
  const char* const kSql =
      "Select Sigs.Name, AV.Count, G.Count "
      "From Sigs, WebCount_AV AV, R, WebCount_Google G "
      "Where Sigs.Name = AV.T1 and Sigs.Name = G.T1";
  // Runs the plan on a fresh deployment; returns its rows, sorted.
  auto run = [&](int64_t latency_micros, bool async, uint64_t* dispatched) {
    DemoOptions opt;
    opt.corpus.num_documents = 2000;
    opt.latency = LatencyModel::Fixed(latency_micros);
    DemoEnv env(opt);
    EXPECT_TRUE(env.db().Execute("CREATE TABLE R (X INT)").ok());
    for (int i = 0; i < kRSize; ++i) {
      EXPECT_TRUE(env.db()
                      .Execute("INSERT INTO R VALUES (" + std::to_string(i) +
                               ")")
                      .ok());
    }
    auto r = env.Run(kSql, async);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return std::vector<Row>{};
    EXPECT_EQ(r->stats.external_calls, kSigs + kSigs * kRSize);
    EXPECT_EQ(env.db().pump()->pending_results(), 0u);
    const ReqPumpStats pump = env.db().pump()->stats();
    *dispatched = pump.dispatched;
    // A hedge's request may reach its engine just after the call it
    // lost resolved, so wait for the engines to see every dispatch.
    auto requests = [&env] {
      return env.altavista_service().stats().total_requests +
             env.google_service().stats().total_requests;
    };
    for (int i = 0; i < 5000 && requests() < pump.dispatched + pump.hedged;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(requests(), pump.dispatched + pump.hedged);
    std::vector<Row> rows = std::move(r->result.rows);
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.Compare(b) < 0; });
    return rows;
  };
  // The latency keeps each Sig's duplicates in flight together; the
  // sequential plan sends the same calls whatever the latency.
  uint64_t async_dispatched = 0;
  uint64_t sync_dispatched = 0;
  std::vector<Row> async_rows = run(20000, /*async=*/true, &async_dispatched);
  std::vector<Row> sync_rows = run(1000, /*async=*/false, &sync_dispatched);
  EXPECT_EQ(async_rows.size(), kSigs * kRSize);
  EXPECT_EQ(async_rows, sync_rows);
  EXPECT_EQ(async_dispatched, 2 * kSigs);
  EXPECT_EQ(sync_dispatched, kSigs + kSigs * kRSize);
}

}  // namespace
}  // namespace wsq
