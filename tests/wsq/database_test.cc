#include "wsq/database.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "wsq/demo.h"

namespace wsq {
namespace {

// Fast environment: small corpus, zero latency.
DemoOptions FastOptions() {
  DemoOptions opt;
  opt.corpus.num_documents = 1200;
  opt.corpus.vocab_size = 800;
  opt.latency = LatencyModel::Instant();
  return opt;
}

class DatabaseTest : public ::testing::Test {
 protected:
  static DemoEnv& Env() {
    static DemoEnv* const kEnv = new DemoEnv(FastOptions());
    return *kEnv;
  }

  ResultSet Must(const std::string& sql, bool async = true) {
    auto r = Env().Run(sql, async);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    return r.ok() ? std::move(r->result) : ResultSet{};
  }
};

TEST_F(DatabaseTest, CreateInsertSelect) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT, B STRING)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO T VALUES (1, 'x'), (2, 'y'), (-3, 'z')")
          .ok());
  auto r = db.Execute("SELECT A, B FROM T WHERE A > 0 ORDER BY A DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.size(), 2u);
  EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 2);
  EXPECT_EQ(r->result.rows[1].value(1).AsString(), "x");
}

TEST_F(DatabaseTest, InsertTypeErrors) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO T VALUES ('nope')").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO T VALUES (1, 2)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO Missing VALUES (1)").ok());
}

TEST_F(DatabaseTest, DoubleColumnAcceptsIntLiterals) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2.5)").ok());
  auto r = db.Execute("SELECT A FROM T ORDER BY A");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.rows[0].value(0).AsDouble(), 1.0);
}

TEST_F(DatabaseTest, DuplicateCreateFails) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE t (A INT)").ok());
}

TEST_F(DatabaseTest, StoredOnlyQueries) {
  ResultSet r = Must("SELECT Name, Capital FROM States ORDER BY Name "
                     "LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].value(0).AsString(), "Alabama");
  EXPECT_EQ(r.rows[0].value(1).AsString(), "Montgomery");
}

TEST_F(DatabaseTest, StoredAggregates) {
  ResultSet r = Must(
      "SELECT COUNT(*), SUM(Population), MIN(Name), MAX(Name) "
      "FROM States");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 50);
  EXPECT_GT(r.rows[0].value(1).AsInt(), 250000000);
  EXPECT_EQ(r.rows[0].value(2).AsString(), "Alabama");
  EXPECT_EQ(r.rows[0].value(3).AsString(), "Wyoming");
}

TEST_F(DatabaseTest, GroupByWithHaving) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (K STRING, V INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES ('a', 1), ('a', 2), "
                         "('b', 5), ('c', 1)")
                  .ok());
  auto r = db.Execute(
      "SELECT K, SUM(V), AVG(V) FROM T GROUP BY K "
      "HAVING SUM(V) > 1 ORDER BY K");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.size(), 2u);
  EXPECT_EQ(r->result.rows[0].value(0).AsString(), "a");
  EXPECT_EQ(r->result.rows[0].value(1).AsInt(), 3);
  EXPECT_DOUBLE_EQ(r->result.rows[0].value(2).AsDouble(), 1.5);
  EXPECT_EQ(r->result.rows[1].value(0).AsString(), "b");
}

TEST_F(DatabaseTest, DeleteWithPredicate) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT, B STRING)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1, 'x'), (2, 'y'), "
                         "(3, 'x'), (4, 'z')")
                  .ok());
  auto del = db.Execute("DELETE FROM T WHERE B = 'x'");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->result.rows[0].value(0).AsInt(), 2);

  auto rest = db.Execute("SELECT A FROM T ORDER BY A");
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->result.rows.size(), 2u);
  EXPECT_EQ(rest->result.rows[0].value(0).AsInt(), 2);
  EXPECT_EQ(rest->result.rows[1].value(0).AsInt(), 4);
}

TEST_F(DatabaseTest, DeleteWithoutPredicateEmptiesTable) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2), (3)").ok());
  auto del = db.Execute("DELETE FROM T");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->result.rows[0].value(0).AsInt(), 3);
  EXPECT_TRUE(db.Execute("SELECT A FROM T")->result.rows.empty());
  // Deleting again removes nothing.
  EXPECT_EQ(db.Execute("DELETE FROM T")->result.rows[0].value(0).AsInt(),
            0);
}

TEST_F(DatabaseTest, DeleteErrors) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM Missing").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM T WHERE Nope = 1").ok());
  EXPECT_FALSE(db.Execute("DELETE T").ok());  // missing FROM
}

TEST_F(DatabaseTest, InsertAfterDeleteReusesTable) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2)").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM T WHERE A = 1").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (5)").ok());
  auto r = db.Execute("SELECT A FROM T ORDER BY A");
  ASSERT_EQ(r->result.rows.size(), 2u);
  EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 2);
  EXPECT_EQ(r->result.rows[1].value(0).AsInt(), 5);
}

TEST_F(DatabaseTest, UpdateWithPredicate) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT, B STRING)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1, 'x'), (2, 'y'), "
                         "(3, 'x')")
                  .ok());
  auto upd = db.Execute("UPDATE T SET A = A * 10 WHERE B = 'x'");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->result.rows[0].value(0).AsInt(), 2);

  auto r = db.Execute("SELECT A, B FROM T ORDER BY A");
  ASSERT_EQ(r->result.rows.size(), 3u);
  EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 2);   // untouched 'y'
  EXPECT_EQ(r->result.rows[1].value(0).AsInt(), 10);
  EXPECT_EQ(r->result.rows[2].value(0).AsInt(), 30);
}

TEST_F(DatabaseTest, UpdateMultipleColumnsUsesOldRowValues) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT, B INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1, 100)").ok());
  // Both assignments see the OLD row: B = A + 1 uses A = 1.
  ASSERT_TRUE(db.Execute("UPDATE T SET A = B, B = A + 1").ok());
  auto r = db.Execute("SELECT A, B FROM T");
  EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 100);
  EXPECT_EQ(r->result.rows[0].value(1).AsInt(), 2);
}

TEST_F(DatabaseTest, UpdateWithoutPredicateTouchesAllRows) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2), (3)").ok());
  auto upd = db.Execute("UPDATE T SET A = 0");
  EXPECT_EQ(upd->result.rows[0].value(0).AsInt(), 3);
  auto r = db.Execute("SELECT SUM(A) FROM T");
  EXPECT_EQ(r->result.rows[0].value(0).AsInt(), 0);
}

TEST_F(DatabaseTest, UpdateErrors) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1)").ok());
  EXPECT_FALSE(db.Execute("UPDATE Missing SET A = 1").ok());
  EXPECT_FALSE(db.Execute("UPDATE T SET Nope = 1").ok());
  EXPECT_FALSE(db.Execute("UPDATE T SET A = 1, A = 2").ok());
  EXPECT_FALSE(db.Execute("UPDATE T SET A = 'string'").ok());
  EXPECT_FALSE(db.Execute("UPDATE T A = 1").ok());  // missing SET
}

TEST_F(DatabaseTest, UpdateIntToDoubleWidens) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1.5)").ok());
  ASSERT_TRUE(db.Execute("UPDATE T SET A = 3").ok());
  auto r = db.Execute("SELECT A FROM T");
  EXPECT_TRUE(r->result.rows[0].value(0).is_double());
  EXPECT_DOUBLE_EQ(r->result.rows[0].value(0).AsDouble(), 3.0);
}

TEST_F(DatabaseTest, WebCountQueryExecutes) {
  ResultSet r = Must(
      "SELECT Name, Count FROM States, WebCount WHERE Name = T1 "
      "ORDER BY Count DESC LIMIT 5");
  ASSERT_EQ(r.rows.size(), 5u);
  // Counts descending and positive for the top states.
  int64_t prev = r.rows[0].value(1).AsInt();
  EXPECT_GT(prev, 0);
  for (const Row& row : r.rows) {
    EXPECT_LE(row.value(1).AsInt(), prev);
    prev = row.value(1).AsInt();
  }
}

TEST_F(DatabaseTest, LikeQueries) {
  ResultSet r = Must(
      "SELECT Name FROM States WHERE Name LIKE 'New%' ORDER BY Name");
  ASSERT_EQ(r.rows.size(), 4u);  // Hampshire, Jersey, Mexico, York
  EXPECT_EQ(r.rows[0].value(0).AsString(), "New Hampshire");
  ResultSet us = Must(
      "SELECT Name FROM States WHERE Name LIKE '%a%a%' ORDER BY Name");
  for (const Row& row : us.rows) {
    const std::string& n = row.value(0).AsString();
    EXPECT_GE(std::count(n.begin(), n.end(), 'a'), 2) << n;
  }
}

TEST_F(DatabaseTest, ScalarFunctionQueries) {
  ResultSet r = Must(
      "SELECT UPPER(Name), LENGTH(Name) FROM States "
      "WHERE Name = 'Utah'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsString(), "UTAH");
  EXPECT_EQ(r.rows[0].value(1).AsInt(), 4);

  // Scalar functions compose with aggregates and predicates.
  ResultSet agg = Must(
      "SELECT MAX(LENGTH(Name)) FROM States "
      "WHERE LENGTH(Name) > 10");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0].value(0).AsInt(), 14);  // "North Carolina" etc.

  // UPPER over an aggregate output.
  ResultSet up = Must("SELECT UPPER(MIN(Name)) FROM States");
  EXPECT_EQ(up.rows[0].value(0).AsString(), "ALABAMA");
}

TEST_F(DatabaseTest, DropTable) {
  WsqDatabase db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1)").ok());
  ASSERT_TRUE(db.Execute("DROP TABLE T").ok());
  EXPECT_FALSE(db.Execute("SELECT A FROM T").ok());
  EXPECT_FALSE(db.Execute("DROP TABLE T").ok());
  // The name becomes available again.
  EXPECT_TRUE(db.Execute("CREATE TABLE T (B STRING)").ok());
}

TEST_F(DatabaseTest, AggregateOverWebResults) {
  // Aggregation above a ReqSync at runtime: total URLs across states —
  // the clash rules keep the ReqSync below the Aggregate, and the
  // counts must match the row set of the non-aggregated query.
  ResultSet rows = Must(
      "SELECT Name, URL FROM States, WebPages "
      "WHERE Name = T1 AND Rank <= 3");
  ResultSet agg = Must(
      "SELECT COUNT(*) FROM States, WebPages "
      "WHERE Name = T1 AND Rank <= 3");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0].value(0).AsInt(),
            static_cast<int64_t>(rows.rows.size()));
  EXPECT_GT(agg.rows[0].value(0).AsInt(), 0);
}

TEST_F(DatabaseTest, GroupByOverWebResults) {
  ResultSet r = Must(
      "SELECT Name, COUNT(*) FROM States, WebPages "
      "WHERE Name = T1 AND Rank <= 2 GROUP BY Name ORDER BY Name");
  for (const Row& row : r.rows) {
    EXPECT_GE(row.value(1).AsInt(), 1);
    EXPECT_LE(row.value(1).AsInt(), 2);
  }
  EXPECT_GT(r.rows.size(), 10u);
}

TEST_F(DatabaseTest, NullBindingTermFailsCleanly) {
  WsqDatabase& db = Env().db();
  ASSERT_TRUE(db.Execute("CREATE TABLE WithNull (Name STRING)").ok());
  TableInfo* t = *db.catalog()->GetTable("WithNull");
  ASSERT_TRUE(t->Insert(Row({Value::Null()})).ok());
  auto r = db.Execute(
      "SELECT Count FROM WithNull, WebCount WHERE Name = T1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(DatabaseTest, SyncAndAsyncAgree) {
  const std::string sql =
      "SELECT Name, Count FROM States, WebCount WHERE Name = T1 "
      "ORDER BY Count DESC, Name";
  ResultSet sync = Must(sql, /*async=*/false);
  ResultSet async = Must(sql, /*async=*/true);
  ASSERT_EQ(sync.rows.size(), async.rows.size());
  for (size_t i = 0; i < sync.rows.size(); ++i) {
    EXPECT_EQ(sync.rows[i], async.rows[i]) << "row " << i;
  }
}

TEST_F(DatabaseTest, StatsCountExternalCalls) {
  auto r = Env().Run(
      "SELECT Name, Count FROM States, WebCount WHERE Name = T1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.external_calls, 50u);  // one per state
  EXPECT_TRUE(r->stats.async_iteration);
}

TEST_F(DatabaseTest, ExplainReturnsPlanText) {
  auto r = Env().db().Execute(
      "EXPLAIN ASYNC SELECT Name, Count FROM States, WebCount "
      "WHERE Name = T1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.size(), 1u);
  std::string plan = r->result.rows[0].value(0).AsString();
  EXPECT_NE(plan.find("ReqSync"), std::string::npos) << plan;
  EXPECT_NE(plan.find("AEVScan"), std::string::npos) << plan;
  // The statement and the API build the same text.
  auto async_plan = Env().db().ExplainSelect(
      "SELECT Name, Count FROM States, WebCount WHERE Name = T1",
      /*async=*/true);
  ASSERT_TRUE(async_plan.ok()) << async_plan.status().ToString();
  EXPECT_EQ(plan, *async_plan);

  auto sync_plan = Env().db().ExplainSelect(
      "SELECT Name, Count FROM States, WebCount WHERE Name = T1",
      /*async=*/false);
  ASSERT_TRUE(sync_plan.ok());
  // No ReqSync operator line and no AEVScan in the sequential plan
  // (the cost annotation may still mention the ReqSync buffer).
  EXPECT_EQ(sync_plan->find("ReqSync\n"), std::string::npos);
  EXPECT_EQ(sync_plan->find("AEVScan"), std::string::npos);
  // Both plans carry the cost annotation.
  EXPECT_NE(sync_plan->find("est. rows"), std::string::npos)
      << *sync_plan;
  EXPECT_NE(plan.find("max concurrent=50"), std::string::npos) << plan;
}

TEST_F(DatabaseTest, CreateTableShadowingVirtualTableFails) {
  EXPECT_FALSE(
      Env().db().Execute("CREATE TABLE WebCount (A INT)").ok());
}

TEST_F(DatabaseTest, ParseErrorsSurface) {
  auto r = Env().db().Execute("SELEC oops");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(DatabaseTest, BindErrorsSurface) {
  auto r = Env().db().Execute("SELECT Nope FROM States");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST_F(DatabaseTest, DivisionByZeroSurfaces) {
  auto r = Env().db().Execute("SELECT Population / 0 FROM States");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(DatabaseTest, ResultSetToStringRendersTable) {
  ResultSet r = Must("SELECT Name FROM States ORDER BY Name LIMIT 2");
  std::string text = r.ToString();
  EXPECT_NE(text.find("States.Name"), std::string::npos);
  EXPECT_NE(text.find("Alabama"), std::string::npos);
  EXPECT_NE(text.find("Alaska"), std::string::npos);
}

TEST_F(DatabaseTest, VirtualTableOnlyQuery) {
  ResultSet r = Must(
      "SELECT Count FROM WebCount WHERE T1 = 'California'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GT(r.rows[0].value(0).AsInt(), 0);
}

TEST_F(DatabaseTest, EngineSuffixedTablesWork) {
  ResultSet av = Must(
      "SELECT Count FROM WebCount_AV WHERE T1 = 'California'");
  ResultSet g = Must(
      "SELECT Count FROM WebCount_Google WHERE T1 = 'California'");
  ASSERT_EQ(av.rows.size(), 1u);
  ASSERT_EQ(g.rows.size(), 1u);
  // Same corpus, single-term query: identical counts.
  EXPECT_EQ(av.rows[0].value(0).AsInt(), g.rows[0].value(0).AsInt());
}

/// Search backend that answers every call with count 1. When `held`,
/// it parks each callback until Release(), so a test can keep one
/// statement waiting on its calls while another statement runs.
class HeldService : public SearchService {
 public:
  HeldService(std::string name, bool held)
      : name_(std::move(name)), held_(held) {}

  const std::string& name() const override { return name_; }

  void Submit(SearchRequest, SearchCallback done) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (held_) {
        parked_.push_back(std::move(done));
        cv_.notify_all();
        return;
      }
    }
    done(SearchResponse{Status::OK(), 1, {}});
  }

  /// Waits until `n` callbacks are parked; false after 30 s without.
  bool AwaitParked(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return parked_.size() >= n; });
  }

  /// Completes every parked call; later calls complete inline.
  void Release() {
    std::vector<SearchCallback> parked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
      parked.swap(parked_);
    }
    for (SearchCallback& done : parked) {
      done(SearchResponse{Status::OK(), 1, {}});
    }
  }

 private:
  const std::string name_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_;
  std::vector<SearchCallback> parked_;
};

// Two statements share the database's ReqPump. Each must report only
// the external calls its own scans issued, not the pump-wide traffic
// that overlapped it.
TEST(DatabaseConcurrencyTest, OverlappingStatementsCountOwnCalls) {
  HeldService held("Held", /*held=*/true);
  HeldService quick("Quick", /*held=*/false);
  WsqDatabase db;
  ASSERT_TRUE(db.RegisterSearchEngine("Held", &held, false).ok());
  ASSERT_TRUE(db.RegisterSearchEngine("Quick", &quick, false).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE Three (Name STRING)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO Three VALUES ('a'), ('b'), ('c')").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE Two (Name STRING)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO Two VALUES ('x'), ('y')").ok());

  // Statement A issues its three calls, then waits on them.
  Result<QueryExecution> a = Status::Internal("statement A never ran");
  std::thread runner([&] {
    a = db.Execute(
        "SELECT Name, Count FROM Three, WebCount_Held WHERE Name = T1");
  });
  EXPECT_TRUE(held.AwaitParked(3));

  // Statement B runs start to finish inside A's window.
  auto b = db.Execute(
      "SELECT Name, Count FROM Two, WebCount_Quick WHERE Name = T1");
  held.Release();
  runner.join();

  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(b->result.rows.size(), 2u);
  EXPECT_EQ(a->result.rows.size(), 3u);
  EXPECT_EQ(b->stats.external_calls, 2u);
  EXPECT_EQ(a->stats.external_calls, 3u);
}

}  // namespace
}  // namespace wsq
