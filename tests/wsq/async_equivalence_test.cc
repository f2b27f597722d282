#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/strings.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

// Property: asynchronous iteration is a pure execution-strategy change —
// for ANY query, the async result multiset equals the sequential one.
// We sweep a family of generated queries (parameterized gtest).
class AsyncEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  static DemoEnv& Env() {
    static DemoEnv* const kEnv = [] {
      DemoOptions opt;
      opt.corpus.num_documents = 1500;
      opt.corpus.vocab_size = 700;
      opt.latency = LatencyModel{1500, 900, 0.1, 3.0};  // jittery!
      return new DemoEnv(opt);
    }();
    return *kEnv;
  }

  // Generated query for one parameter index: varies constants, rank
  // limits, engines, join shapes, and ORDER BY columns.
  static std::string QueryFor(int index) {
    const auto& constants = TemplateConstants();
    const std::string& c1 = constants[index % constants.size()];
    const std::string& c2 = constants[(index + 5) % constants.size()];
    int rank = 1 + (index % 4);
    switch (index % 6) {
      case 0:
        return StrFormat(
            "Select Name, Count From States, WebCount "
            "Where Name = T1 and T2 = '%s' Order By Count Desc, Name",
            c1.c_str());
      case 1:
        return StrFormat(
            "Select Name, URL, Rank From Sigs, WebPages "
            "Where Name = T1 and Rank <= %d Order By Name, Rank", rank);
      case 2:
        return StrFormat(
            "Select Name, Count, URL, Rank "
            "From States, WebCount, WebPages "
            "Where Name = WebCount.T1 and WebCount.T2 = '%s' and "
            "Name = WebPages.T1 and WebPages.T2 = '%s' and "
            "WebPages.Rank <= %d "
            "Order By Name, Rank",
            c1.c_str(), c2.c_str(), rank);
      case 3:
        return StrFormat(
            "Select Name, AV.URL, G.URL From Sigs, WebPages_AV AV, "
            "WebPages_Google G "
            "Where Name = AV.T1 and Name = G.T1 and AV.Rank <= %d and "
            "G.Rank <= %d and AV.T2 = '%s' and G.T2 = '%s' "
            "Order By Name, AV.URL, G.URL",
            rank, rank, c1.c_str(), c1.c_str());
      case 4:
        return StrFormat(
            "Select Capital, C.Count, Name, S.Count "
            "From States, WebCount C, WebCount S "
            "Where Capital = C.T1 and Name = S.T1 and "
            "C.Count > S.Count Order By Capital");
      default:
        return StrFormat(
            "Select Name, Count From CSFields, WebCount "
            "Where Name = T1 and T2 = '%s' "
            "Order By Count Desc, Name", c2.c_str());
    }
  }
};

TEST_P(AsyncEquivalenceTest, AsyncMatchesSequential) {
  std::string sql = QueryFor(GetParam());
  auto sync = Env().Run(sql, /*async=*/false);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString() << "\n" << sql;
  auto async = Env().Run(sql, /*async=*/true);
  ASSERT_TRUE(async.ok()) << async.status().ToString() << "\n" << sql;

  ASSERT_EQ(sync->result.rows.size(), async->result.rows.size()) << sql;
  // The queries all have total ORDER BYs, so compare positionally.
  for (size_t i = 0; i < sync->result.rows.size(); ++i) {
    ASSERT_EQ(sync->result.rows[i], async->result.rows[i])
        << sql << "\nrow " << i;
  }
}

TEST_P(AsyncEquivalenceTest, InsertOnlyRewriteAlsoMatches) {
  // The ablation rewrite (no percolation/consolidation) must still be
  // correct — it only reduces concurrency.
  std::string sql = QueryFor(GetParam());
  auto sync = Env().Run(sql, /*async=*/false);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  WsqDatabase::ExecOptions opt;
  opt.async_iteration = true;
  opt.rewrite.insert_only = true;
  opt.rewrite.consolidate = false;
  auto ablated = Env().db().Execute(sql, opt);
  ASSERT_TRUE(ablated.ok()) << ablated.status().ToString() << "\n" << sql;

  ASSERT_EQ(sync->result.rows.size(), ablated->result.rows.size())
      << sql;
  for (size_t i = 0; i < sync->result.rows.size(); ++i) {
    ASSERT_EQ(sync->result.rows[i], ablated->result.rows[i])
        << sql << "\nrow " << i;
  }
}

TEST_P(AsyncEquivalenceTest, StreamingReqSyncAlsoMatches) {
  std::string sql = QueryFor(GetParam());
  auto sync = Env().Run(sql, /*async=*/false);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  WsqDatabase::ExecOptions opt;
  opt.async_iteration = true;
  opt.rewrite.streaming_reqsync = true;
  auto streaming = Env().db().Execute(sql, opt);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString() << "\n"
                              << sql;

  ASSERT_EQ(sync->result.rows.size(), streaming->result.rows.size())
      << sql;
  for (size_t i = 0; i < sync->result.rows.size(); ++i) {
    ASSERT_EQ(sync->result.rows[i], streaming->result.rows[i])
        << sql << "\nrow " << i;
  }
}

TEST_P(AsyncEquivalenceTest, ExternalCallsCountWhatWasIssued) {
  // QueryStats::external_calls is counted by the scans themselves under
  // both strategies; every call they issue is registered on the
  // database's pump and leaves nothing behind in it. The engines' two
  // services see each of the pump's dispatches and hedges.
  auto requests = [] {
    return Env().altavista_service().stats().total_requests +
           Env().google_service().stats().total_requests;
  };
  ReqPump* pump = Env().db().pump();
  std::string sql = QueryFor(GetParam());
  for (bool async : {false, true}) {
    const char* strategy = async ? "async: " : "sync: ";
    uint64_t before = requests();
    const ReqPumpStats pump_before = pump->stats();
    size_t pending_before = pump->pending_results();
    auto r = Env().Run(sql, async);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    const ReqPumpStats pump_after = pump->stats();
    const uint64_t sent = pump_after.dispatched - pump_before.dispatched +
                          pump_after.hedged - pump_before.hedged;
    EXPECT_GT(r->stats.external_calls, 0u) << sql;
    EXPECT_EQ(r->stats.external_calls,
              pump_after.registered - pump_before.registered)
        << strategy << sql;
    // The statement counts the hedged calls whose answers it read; a
    // call cancelled with its tuples is hedged unread.
    EXPECT_LE(r->stats.hedged_calls, pump_after.hedged - pump_before.hedged)
        << strategy << sql;
    // A hedge's request may reach its engine just after the call it
    // lost resolved, so wait for the engines to see every one.
    for (int i = 0; i < 5000 && requests() - before < sent; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(requests() - before, sent) << strategy << sql;
    EXPECT_EQ(pump->pending_results(), pending_before) << strategy << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(QuerySweep, AsyncEquivalenceTest,
                         ::testing::Range(0, 18));

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.Compare(b) < 0; });
  return rows;
}

// The shard policy reaches the sequential plan's calls as it reaches
// the async plan's: with shard 0 dark and best-effort answers, both
// strategies return the same lower-bound counts and account for the
// same partial results.
TEST(AsyncEquivalenceShardTest, BestEffortPartialsMatchAcrossStrategies) {
  DemoOptions opt;
  opt.corpus.num_documents = 1500;
  opt.corpus.vocab_size = 700;
  opt.latency = LatencyModel::Fixed(500);
  opt.search_shards = 4;
  opt.shard_replicas = false;
  opt.shard_faults.resize(4);
  opt.shard_faults[0].permanent_rate = 1.0;
  opt.query_log_sink = [](const QueryRecord&) {};
  DemoEnv env(opt);
  const char* sql =
      "Select Name, Count From States, WebCount Where Name = T1";
  WsqDatabase::ExecOptions options;
  options.shard.policy = ShardPolicy::kBestEffort;

  options.async_iteration = true;
  auto async = env.db().Execute(sql, options);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  options.async_iteration = false;
  auto sync = env.db().Execute(sql, options);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  EXPECT_EQ(async->result.rows.size(), 50u);
  EXPECT_EQ(SortedRows(sync->result.rows), SortedRows(async->result.rows));
  EXPECT_EQ(async->stats.partial_results, 50u);
  EXPECT_EQ(sync->stats.partial_results, async->stats.partial_results);
  EXPECT_EQ(sync->stats.degraded_shards, async->stats.degraded_shards);
  EXPECT_EQ(env.db().pump()->pending_results(), 0u);
}

}  // namespace
}  // namespace wsq
