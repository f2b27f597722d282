#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "exec/scan_ops.h"
#include "plan/logical_plan.h"
#include "wsq/demo.h"

// End-to-end query governor: deadlines abort promptly without leaking
// in-flight external calls, cross-thread cancellation works mid-query,
// and the remaining query budget clamps external call timeouts.

namespace wsq {
namespace {

DemoOptions SlowWebOptions(int64_t latency_micros) {
  DemoOptions opt;
  opt.corpus.num_documents = 1200;
  opt.corpus.vocab_size = 800;
  opt.latency = LatencyModel::Fixed(latency_micros);
  return opt;
}

// Secondary sort key keeps the result deterministic when counts tie.
const char kWebSql[] =
    "SELECT Name, Count FROM States, WebCount WHERE Name = T1 "
    "ORDER BY Count DESC, Name LIMIT 5";

// The acceptance scenario: a 50 ms deadline over a 1 s-latency
// destination must come back kDeadlineExceeded in far less than the
// call latency, with every issued call accounted for.
TEST(GovernorTest, DeadlineAbortsPromptlyWithoutLeakingCalls) {
  DemoEnv env(SlowWebOptions(1000000));
  WsqDatabase::ExecOptions options;
  options.deadline_micros = 50000;  // 50 ms
  Stopwatch timer;
  auto r = env.db().Execute(kWebSql, options);
  int64_t elapsed = timer.ElapsedMicros();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // Deadline + a few 5 ms poll quanta — never the 1 s call latency.
  EXPECT_LT(elapsed, 300000);
  // Zero leaked in-flight calls: the Close cascade reaped everything.
  ReqPump* pump = env.db().pump();
  EXPECT_EQ(pump->pending_results(), 0u);
  ReqPumpStats stats = pump->stats();
  EXPECT_EQ(stats.registered,
            stats.completed + stats.cancelled + stats.shed);
  // Every issued call was torn down one way or the other: either the
  // clamped timeout expired it (failed) or the Close cascade cancelled
  // it — never by waiting out the 1 s destination latency.
  EXPECT_GT(stats.failed + stats.cancelled, 0u);
}

TEST(GovernorTest, AlreadyExpiredDeadlineFailsBeforeIssuingCalls) {
  DemoEnv env(SlowWebOptions(1000000));
  WsqDatabase::ExecOptions options;
  options.deadline_micros = 1;  // expires effectively immediately
  auto r = env.db().Execute(kWebSql, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(env.db().pump()->pending_results(), 0u);
}

TEST(GovernorTest, CrossThreadCancelAbortsExecute) {
  DemoEnv env(SlowWebOptions(1000000));
  CancellationToken token;
  WsqDatabase::ExecOptions options;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  Stopwatch timer;
  auto r = env.db().Execute(kWebSql, options);
  int64_t elapsed = timer.ElapsedMicros();
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
  EXPECT_LT(elapsed, 500000);
  EXPECT_EQ(env.db().pump()->pending_results(), 0u);
}

TEST(GovernorTest, DeadlineDoesNotPerturbFastQueries) {
  DemoOptions opt;
  opt.corpus.num_documents = 1200;
  opt.corpus.vocab_size = 800;
  opt.latency = LatencyModel::Instant();
  DemoEnv env(opt);
  auto baseline = env.db().Execute(kWebSql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  WsqDatabase::ExecOptions options;
  options.deadline_micros = 60LL * 1000 * 1000;  // generous
  auto governed = env.db().Execute(kWebSql, options);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  ASSERT_EQ(governed->result.rows.size(), baseline->result.rows.size());
  for (size_t i = 0; i < governed->result.rows.size(); ++i) {
    EXPECT_EQ(governed->result.rows[i].ToString(),
              baseline->result.rows[i].ToString());
  }
}

// A sequential plan waits for its calls on the pump under the query's
// token, so its deadline holds even when the engine never answers. The
// helper releases the hung requests once the query returns, or after
// 2 s if it never does, so a wait that ignores the deadline fails the
// timing check below instead of hanging the test.
TEST(GovernorTest, SequentialDeadlineOverHungEngine) {
  Corpus corpus = MakePaperCorpus(SlowWebOptions(0).corpus);
  SearchEngineConfig config;
  config.name = "AltaVista";
  config.supports_near = true;
  SearchEngine engine(&corpus, config);
  SimulatedSearchService::Options svc;
  svc.latency = LatencyModel::Instant();
  svc.faults.hang_rate = 1.0;
  SimulatedSearchService service(&engine, svc);
  WsqDatabase::Options db_options;
  db_options.query_log_sink = [](const QueryRecord&) {};
  WsqDatabase db(db_options);
  ASSERT_TRUE(db.RegisterSearchEngine("AV", &service, true).ok());
  ASSERT_TRUE(LoadStatesTable(&db).ok());

  std::mutex mu;
  std::condition_variable cv;
  bool query_done = false;
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return query_done; });
    service.ReleaseHung();
  });
  WsqDatabase::ExecOptions options;
  options.async_iteration = false;
  options.deadline_micros = 200000;  // 200 ms
  Stopwatch timer;
  auto r = db.Execute(kWebSql, options);
  int64_t elapsed = timer.ElapsedMicros();
  {
    std::lock_guard<std::mutex> lock(mu);
    query_done = true;
  }
  cv.notify_one();
  releaser.join();

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LT(elapsed, 1000000);
  EXPECT_EQ(db.pump()->pending_results(), 0u);
}

// A sequential scan takes each call's result itself, so the query drops
// that call's id, and its charge to the query budget, at once: a
// dependent join over the 50 states holds one id at a time, not one per
// outer row, and leaves nothing for the sweep to cancel.
TEST(GovernorTest, SequentialScanReleasesEachCallItTakes) {
  DemoOptions opt = SlowWebOptions(0);
  opt.latency = LatencyModel::Instant();
  DemoEnv env(opt);
  WsqDatabase::ExecOptions options;
  options.async_iteration = false;
  auto r = env.db().Execute(
      "SELECT Name, Count FROM States, WebCount WHERE Name = T1", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.external_calls, 50u);
  EXPECT_LE(r->stats.peak_memory_bytes, sizeof(CallId));
  EXPECT_EQ(r->stats.cancelled_calls, 0u);
  EXPECT_EQ(env.db().pump()->pending_results(), 0u);
}

// Several queries with private tokens racing a canceller thread: every
// Execute must terminate with OK or kCancelled, and the pump ledger
// must balance afterwards (TSan target).
TEST(GovernorTest, ConcurrentExecuteAndCancelRaces) {
  DemoEnv env(SlowWebOptions(30000));
  constexpr int kQueries = 6;
  std::vector<CancellationToken> tokens(kQueries);
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&env, &tokens, &finished, q] {
      WsqDatabase::ExecOptions options;
      options.cancel = &tokens[q];
      auto r = env.db().Execute(kWebSql, options);
      EXPECT_TRUE(r.ok() ||
                  r.status().code() == StatusCode::kCancelled)
          << r.status().ToString();
      ++finished;
    });
  }
  std::thread canceller([&tokens] {
    for (int q = 0; q < kQueries; q += 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      tokens[q].Cancel();
    }
  });
  for (std::thread& th : threads) th.join();
  canceller.join();
  EXPECT_EQ(finished.load(), kQueries);
  ReqPump* pump = env.db().pump();
  pump->Drain();
  EXPECT_EQ(pump->pending_results(), 0u);
  ReqPumpStats stats = pump->stats();
  EXPECT_EQ(stats.registered,
            stats.completed + stats.cancelled + stats.shed);
}

// Percolation pulls ReqSync above the non-clashing join with Sigs, and
// that join discards every placeholder tuple (no state is named like a
// SIG), so no ReqSync ever sees the 50 WebCount calls. The executor
// must cancel them after the tree closes instead of leaving their
// results in the pump hash for good. The second input puts the client
// result cache in front of the engine: the cancelled calls are still
// running when the environment is destroyed, and their late answers
// pass through the caching layer as the services shut down, so the
// cache must still be alive then (ASan reports a use-after-free
// otherwise).
TEST(GovernorTest, CallsWhoseTuplesAreDroppedBelowReqSyncAreCancelled) {
  for (size_t cache_entries : {size_t{0}, size_t{64}}) {
    SCOPED_TRACE(cache_entries == 0 ? "no cache" : "client cache");
    DemoOptions options = SlowWebOptions(1000000);
    options.client_cache_entries = cache_entries;
    auto env = std::make_unique<DemoEnv>(options);
    auto r = env->db().Execute(
        "SELECT S.Name, Count FROM States S, WebCount, Sigs G "
        "WHERE S.Name = T1 AND G.Name = S.Name");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->result.rows.empty());
    EXPECT_EQ(r->stats.external_calls, 50u);
    EXPECT_EQ(r->stats.cancelled_calls, 50u);
    ReqPump* pump = env->db().pump();
    pump->Drain();
    EXPECT_EQ(pump->pending_results(), 0u);
    ReqPumpStats stats = pump->stats();
    EXPECT_EQ(stats.registered,
              stats.completed + stats.cancelled + stats.shed);
    EXPECT_EQ(env->altavista_service().stats().completed_requests, 0u);
    // Teardown delivers the abandoned requests without waiting out
    // their 1 s latency.
    Stopwatch timer;
    env.reset();
    EXPECT_LT(timer.ElapsedMicros(), 500000);
  }
}

// ReqPump limits bound the calls whose answers are still wanted. Each
// query below dispatches 4 of its 50 calls (the per-destination limit)
// and queues the rest; its sweep then drops the 46 queued calls before
// they reach the engine and abandons the 4 dispatched ones, which stop
// counting against the limit at once although the engine (capacity 4)
// is still serving them. So three such queries leave the engine
// holding 12 requests, three times the limit.
TEST(GovernorTest, AbandonedCallsStopCountingAgainstTheDestinationLimit) {
  DemoOptions options = SlowWebOptions(1000000);
  options.server_capacity = 4;
  options.pump_limits.max_per_destination = 4;
  DemoEnv env(options);
  for (int q = 0; q < 3; ++q) {
    auto r = env.db().Execute(
        "SELECT S.Name, Count FROM States S, WebCount, Sigs G "
        "WHERE S.Name = T1 AND G.Name = S.Name");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.cancelled_calls, 50u);
  }
  EXPECT_EQ(env.db().pump()->in_flight(), 0);
  SimulatedServiceStats engine = env.altavista_service().stats();
  EXPECT_EQ(engine.total_requests, 12u);
  EXPECT_EQ(engine.completed_requests, 0u);
  EXPECT_EQ(engine.max_concurrent, 12u);
}

// ---------------------------------------------------------------------
// Deadline clamping of external call timeouts (unit level, via a fake
// virtual table that records the timeout it was handed).

class RecordingTable : public VirtualTable {
 public:
  RecordingTable() : name_("Fake"), destination_("fake") {}

  const std::string& name() const override { return name_; }
  const std::string& destination() const override {
    return destination_;
  }

  Schema SchemaForTerms(size_t n) const override {
    Schema s;
    s.AddColumn(Column("SearchExp", TypeId::kString, name_));
    for (size_t i = 1; i <= n; ++i) {
      s.AddColumn(Column(StrFormat("T%zu", i), TypeId::kString, name_));
    }
    s.AddColumn(Column("Out", TypeId::kInt64, name_));
    return s;
  }

  size_t NumOutputColumns() const override { return 1; }
  bool SingleRowOutput() const override { return true; }

  using VirtualTable::SubmitAsync;
  CallId SubmitAsync(const VTableRequest&, ReqPump* pump,
                     int64_t timeout_micros) override {
    last_timeout_micros = timeout_micros;
    return pump->Register(destination_, [](CallCompletion done) {
      done(CallResult{Status::OK(), {Row({Value::Int(1)})}});
    });
  }

  int64_t last_timeout_micros = -1;

 private:
  std::string name_;
  std::string destination_;
};

class ClampTest : public ::testing::Test {
 protected:
  // Opens an AEVScan over `table` with the given pump default timeout
  // and token, returning the timeout the table saw.
  int64_t OpenAndRecord(RecordingTable* table, int64_t pump_default,
                        const CancellationToken* token) {
    ReqPump::Limits limits;
    limits.default_timeout_micros = pump_default;
    ReqPump pump(limits);
    EVScanNode node(table, "Fake", 1);
    node.constant_terms[1] = Value::Str("term");
    node.async = true;
    ExecContext ctx;
    ctx.pump = &pump;
    AEVScanOperator op(&node, &ctx);
    op.SetCancelToken(token);
    Status s = op.Open();
    EXPECT_TRUE(s.ok()) << s.ToString();
    Row row;
    while (true) {
      auto more = op.Next(&row);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) break;
    }
    EXPECT_TRUE(op.Close().ok());
    pump.Drain();
    return table->last_timeout_micros;
  }
};

TEST_F(ClampTest, RemainingBudgetClampsCallTimeout) {
  RecordingTable table;
  CancellationToken token;
  token.SetDeadlineAfter(100000);  // 100 ms left
  // Pump default is 10 s: the query budget must win.
  int64_t timeout =
      OpenAndRecord(&table, 10LL * 1000 * 1000, &token);
  EXPECT_GT(timeout, 0);
  EXPECT_LE(timeout, 100000);
}

TEST_F(ClampTest, SmallerPumpDefaultWinsOverLargeBudget) {
  RecordingTable table;
  CancellationToken token;
  token.SetDeadlineAfter(60LL * 1000 * 1000);  // a minute left
  int64_t timeout = OpenAndRecord(&table, 1000, &token);
  EXPECT_EQ(timeout, 1000);
}

TEST_F(ClampTest, NoDeadlinePassesZeroForPumpDefault) {
  RecordingTable table;
  // No deadline on the token: the scan should defer to the pump's
  // default timeout by passing 0.
  CancellationToken token;
  EXPECT_EQ(OpenAndRecord(&table, 1000, &token), 0);
  RecordingTable no_token_table;
  EXPECT_EQ(OpenAndRecord(&no_token_table, 1000, nullptr), 0);
}

TEST_F(ClampTest, ExpiredBudgetRefusesToIssueTheCall) {
  RecordingTable table;
  CancellationToken token;
  token.SetDeadline(NowMicros() - 1);
  ReqPump pump;
  EVScanNode node(&table, "Fake", 1);
  node.constant_terms[1] = Value::Str("term");
  node.async = true;
  ExecContext ctx;
  ctx.pump = &pump;
  AEVScanOperator op(&node, &ctx);
  op.SetCancelToken(&token);
  Status s = op.Open();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  // The call was never issued.
  EXPECT_EQ(table.last_timeout_micros, -1);
}

}  // namespace
}  // namespace wsq
