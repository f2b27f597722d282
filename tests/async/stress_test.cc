// Failure-injection and load stress for the asynchronous subsystem:
// ReqPump limits under heavy traffic, server capacity interplay, and
// end-to-end WSQ queries under flaky engines with retries.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "async/req_pump.h"
#include "common/clock.h"
#include "net/simulated_service.h"
#include "wsq/database.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

TEST(ReqPumpStressTest, FiveHundredCallsUnderTightLimits) {
  ReqPump::Limits limits;
  limits.max_global = 12;
  limits.max_per_destination = 4;
  ReqPump pump(limits);

  std::atomic<int> live_global{0};
  std::atomic<int> peak_global{0};
  // No completion may land until every call is registered; otherwise
  // whether the queue ever forms depends on scheduling (under TSan's
  // slowdown it sometimes never did).
  std::atomic<bool> release{false};
  const char* destinations[] = {"a", "b", "c", "d"};

  std::vector<CallId> ids;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    int64_t delay = 200 + static_cast<int64_t>(rng.Uniform(1500));
    ids.push_back(pump.Register(
        destinations[i % 4], [&, delay, i](CallCompletion done) {
          int now = ++live_global;
          int old = peak_global.load();
          while (now > old &&
                 !peak_global.compare_exchange_weak(old, now)) {
          }
          std::thread([&, delay, i, done = std::move(done)] {
            while (!release.load()) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(100));
            }
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay));
            --live_global;
            done(CallResult{Status::OK(), {Row({Value::Int(i)})}});
          }).detach();
        }));
  }
  release.store(true);

  std::set<int64_t> seen;
  for (CallId id : ids) {
    CallResult r = pump.TakeBlocking(id);
    ASSERT_TRUE(r.status.ok());
    seen.insert(r.rows[0].value(0).AsInt());
  }
  EXPECT_EQ(seen.size(), 500u);  // every call completed exactly once
  EXPECT_LE(peak_global.load(), 12);
  EXPECT_EQ(pump.stats().completed, 500u);
  EXPECT_LE(pump.stats().max_in_flight, 12u);
  EXPECT_GT(pump.stats().queued_peak, 0u);
}

TEST(ReqPumpStressTest, ConcurrentRegistrationsFromManyThreads) {
  ReqPump pump;
  std::atomic<int> completions{0};
  const int kThreads = 8;
  const int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        CallId id = pump.Register(
            "dest" + std::to_string(t % 3), [&](CallCompletion done) {
              done(CallResult{Status::OK(), {}});
            });
        CallResult r = pump.TakeBlocking(id);
        if (r.status.ok()) ++completions;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions.load(), kThreads * kPerThread);
  EXPECT_EQ(pump.stats().registered,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(AsyncStressTest, PumpLimitMeetsServerCapacity) {
  // Both throttles at once: ReqPump allows 8 outstanding, the server
  // serves 4 at a time. 40 calls of 5 ms ≥ 40/4 * 5 ms = 50 ms.
  DemoOptions options;
  options.corpus.num_documents = 1000;
  options.corpus.vocab_size = 500;
  options.latency = LatencyModel::Fixed(5000);
  options.server_capacity = 4;
  options.pump_limits.max_global = 8;
  DemoEnv env(options);

  WSQ_IGNORE_STATUS(env.db().Execute("CREATE TABLE T40 (Name STRING)"));
  TableInfo* t = *env.db().catalog()->GetTable("T40");
  const auto& vocab = env.corpus().vocabulary();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        t->Insert(Row({Value::Str(vocab[i % vocab.size()])})).ok());
  }

  Stopwatch timer;
  auto r = env.Run(
      "Select Name, Count From T40, WebCount Where Name = T1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.rows.size(), 40u);
  EXPECT_GE(timer.ElapsedMicros(), 45000);  // capacity-bound
  EXPECT_LE(env.db().pump()->stats().max_in_flight, 8u);
}

TEST(AsyncStressTest, FlakyEngineWithRetriesStillAnswersQueries) {
  // An engine that fails ~30% of first attempts, behind a pump that
  // retries: WSQ queries succeed and results match a healthy run.
  CorpusConfig cfg;
  cfg.num_documents = 1500;
  cfg.seed = 77;
  Corpus corpus = MakePaperCorpus(cfg);
  SearchEngineConfig ecfg;
  ecfg.name = "AltaVista";
  SearchEngine engine(&corpus, ecfg);
  SimulatedSearchService::Options sopt;
  sopt.latency = LatencyModel::Fixed(1000);
  SimulatedSearchService backend(&engine, sopt);

  // Deterministically flaky: the FIRST attempt of every 3rd distinct
  // query fails; retries of the same query succeed.
  class FirstAttemptOfEveryThirdQueryFails : public SearchService {
   public:
    explicit FirstAttemptOfEveryThirdQueryFails(SearchService* wrapped)
        : wrapped_(wrapped) {}
    const std::string& name() const override { return wrapped_->name(); }
    void Submit(SearchRequest request, SearchCallback done) override {
      bool fail = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (seen_.insert(request.query).second) {
          fail = (seen_.size() % 3 == 0);
        }
      }
      if (fail) {
        done(SearchResponse{Status::IOError("blip"), 0, {}});
        return;
      }
      wrapped_->Submit(std::move(request), std::move(done));
    }

   private:
    SearchService* wrapped_;
    std::mutex mu_;
    std::set<std::string> seen_;
  } flaky(&backend);

  WsqDatabase::Options dbopt;
  dbopt.pump_limits.retry.max_attempts = 4;
  dbopt.pump_limits.retry.initial_backoff_micros = 300;
  WsqDatabase db(dbopt);
  ASSERT_TRUE(db.RegisterSearchEngine("AV", &flaky, true).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE Sigs (Name STRING)").ok());
  for (const std::string& sig : AcmSigs()) {
    ASSERT_TRUE(db.Execute("INSERT INTO Sigs VALUES ('" + sig + "')")
                    .ok());
  }

  auto r = db.Execute(
      "Select Name, Count From Sigs, WebCount Where Name = T1 "
      "Order By Name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.rows.size(), 37u);
  EXPECT_GT(db.pump()->stats().retried, 0u);

  // Cross-check against the unflaky backend.
  WsqDatabase clean;
  ASSERT_TRUE(clean.RegisterSearchEngine("AV", &backend, true).ok());
  ASSERT_TRUE(clean.Execute("CREATE TABLE Sigs (Name STRING)").ok());
  for (const std::string& sig : AcmSigs()) {
    ASSERT_TRUE(
        clean.Execute("INSERT INTO Sigs VALUES ('" + sig + "')").ok());
  }
  auto expected = clean.Execute(
      "Select Name, Count From Sigs, WebCount Where Name = T1 "
      "Order By Name");
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(r->result.rows.size(), expected->result.rows.size());
  for (size_t i = 0; i < r->result.rows.size(); ++i) {
    EXPECT_EQ(r->result.rows[i], expected->result.rows[i]) << i;
  }
}

TEST(AsyncStressTest, ConcurrentQueriesShareOnePump) {
  // The paper's ReqPump is a GLOBAL module: several queries (threads)
  // multiplex their calls through it simultaneously.
  DemoOptions options;
  options.corpus.num_documents = 1500;
  options.latency = LatencyModel::Fixed(3000);
  DemoEnv env(options);

  const char* queries[] = {
      "Select Name, Count From States, WebCount Where Name = T1 "
      "Order By Count Desc, Name",
      "Select Name, Count From Sigs, WebCount Where Name = T1 "
      "Order By Count Desc, Name",
      "Select Name, URL, Rank From CSFields, WebPages "
      "Where Name = T1 and Rank <= 3 Order By Name, Rank",
  };

  // Reference results, computed serially.
  std::vector<ResultSet> expected;
  for (const char* sql : queries) {
    auto r = env.Run(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r->result));
  }

  std::vector<std::thread> threads;
  std::vector<Status> statuses(9);
  std::vector<ResultSet> results(9);
  for (int t = 0; t < 9; ++t) {
    threads.emplace_back([&, t] {
      auto r = env.Run(queries[t % 3]);
      if (r.ok()) {
        results[t] = std::move(r->result);
      } else {
        statuses[t] = r.status();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 0; t < 9; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << t << ": " << statuses[t].ToString();
    const ResultSet& want = expected[t % 3];
    ASSERT_EQ(results[t].rows.size(), want.rows.size()) << t;
    for (size_t i = 0; i < want.rows.size(); ++i) {
      ASSERT_EQ(results[t].rows[i], want.rows[i]) << t << " row " << i;
    }
  }
}

// Fixture for the degradation tests: a WSQ database whose only engine
// hangs 10% and hard-fails 10% of distinct requests, behind a 100 ms
// per-call deadline. The WebCount query over the 37 ACM SIGs then sees
// a deterministic (per seed) mix of successes, permanent errors, and
// deadline timeouts.
struct DegradedRun {
  Status status;
  ResultSet result;
  QueryStats stats;
  SimulatedServiceStats faults;
  size_t pending_results_after = 0;
  int64_t elapsed_micros = 0;
};

DegradedRun RunDegradedSigsQuery(OnCallError policy, uint64_t seed) {
  CorpusConfig cfg;
  cfg.num_documents = 1500;
  cfg.seed = 77;
  Corpus corpus = MakePaperCorpus(cfg);
  SearchEngineConfig ecfg;
  ecfg.name = "AltaVista";
  SearchEngine engine(&corpus, ecfg);
  SimulatedSearchService::Options sopt;
  sopt.latency = LatencyModel::Fixed(1000);
  sopt.faults.seed = seed;
  sopt.faults.hang_rate = 0.10;  // never answers; only the deadline saves us
  sopt.faults.permanent_rate = 0.10;  // hard error on every attempt
  SimulatedSearchService faulty(&engine, sopt);

  DegradedRun out;
  {
    WsqDatabase::Options dbopt;
    dbopt.pump_limits.default_timeout_micros = 100000;
    WsqDatabase db(dbopt);
    EXPECT_TRUE(db.RegisterSearchEngine("AV", &faulty, true).ok());
    EXPECT_TRUE(db.Execute("CREATE TABLE Sigs (Name STRING)").ok());
    for (const std::string& sig : AcmSigs()) {
      EXPECT_TRUE(
          db.Execute("INSERT INTO Sigs VALUES ('" + sig + "')").ok());
    }

    WsqDatabase::ExecOptions opts;
    opts.rewrite.on_call_error = policy;
    Stopwatch timer;
    auto r = db.Execute(
        "Select Name, Count From Sigs, WebCount Where Name = T1 "
        "Order By Name",
        opts);
    out.elapsed_micros = timer.ElapsedMicros();
    if (r.ok()) {
      out.result = std::move(r->result);
      out.stats = r->stats;
    } else {
      out.status = r.status();
    }
    out.pending_results_after = db.pump()->pending_results();
  }  // db (and its pump) destroyed BEFORE the node releases its hung
  out.faults = faulty.stats();  // callbacks — must be safe
  return out;
}

constexpr uint64_t kDegradedSeed = 7;

TEST(AsyncStressTest, DegradedQueryNullPadsFailedCalls) {
  DegradedRun run =
      RunDegradedSigsQuery(OnCallError::kNullPad, kDegradedSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  // The fault plan actually bit: some calls hung, some hard-failed.
  ASSERT_GT(run.faults.injected_hangs, 0u);
  ASSERT_GT(run.faults.injected_permanent, 0u);
  // Every SIG is present; the failed ones carry NULL counts.
  ASSERT_EQ(run.result.rows.size(), 37u);
  size_t null_counts = 0;
  for (const Row& row : run.result.rows) {
    EXPECT_FALSE(row.value(0).is_null());  // Name came from the table
    if (row.value(1).is_null()) ++null_counts;
  }
  EXPECT_EQ(null_counts, run.stats.null_padded_tuples);
  EXPECT_GT(run.stats.null_padded_tuples, 0u);
  EXPECT_EQ(run.stats.dropped_tuples, 0u);
  EXPECT_GE(run.stats.failed_calls,
            run.faults.injected_permanent + run.faults.injected_hangs);
  // Bounded by the deadline, not by the hung engine: well under the
  // 100 ms timeout plus scheduling slack, nowhere near a hang.
  EXPECT_LT(run.elapsed_micros, 5000000);
  // Nothing left rotting in ReqPumpHash.
  EXPECT_EQ(run.pending_results_after, 0u);
}

TEST(AsyncStressTest, DegradedQueryDropsTuplesOfFailedCalls) {
  DegradedRun run =
      RunDegradedSigsQuery(OnCallError::kDropTuple, kDegradedSeed);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_GT(run.stats.dropped_tuples, 0u);
  // The answer is the surviving subset: dropped + returned = 37.
  EXPECT_EQ(run.result.rows.size() + run.stats.dropped_tuples, 37u);
  for (const Row& row : run.result.rows) {
    EXPECT_FALSE(row.value(1).is_null());  // survivors are complete
  }
  EXPECT_EQ(run.stats.null_padded_tuples, 0u);
  EXPECT_LT(run.elapsed_micros, 5000000);
  EXPECT_EQ(run.pending_results_after, 0u);
}

TEST(AsyncStressTest, DegradedQueryFailsUnderStrictPolicy) {
  DegradedRun run =
      RunDegradedSigsQuery(OnCallError::kFailQuery, kDegradedSeed);
  // Default semantics: the first failed call aborts the query with its
  // error; no hang, no crash, pump left clean.
  EXPECT_FALSE(run.status.ok());
  EXPECT_TRUE(IsTransient(run.status.code()) ||
              run.status.code() == StatusCode::kExecutionError)
      << run.status.ToString();
  EXPECT_LT(run.elapsed_micros, 5000000);
  EXPECT_EQ(run.pending_results_after, 0u);
}

TEST(AsyncStressTest, DegradedQueryIsDeterministicPerSeed) {
  DegradedRun first =
      RunDegradedSigsQuery(OnCallError::kNullPad, kDegradedSeed);
  DegradedRun second =
      RunDegradedSigsQuery(OnCallError::kNullPad, kDegradedSeed);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  // Faults are keyed on request content, so two fresh runs with the
  // same seed degrade the same tuples the same way.
  ASSERT_EQ(first.result.rows.size(), second.result.rows.size());
  for (size_t i = 0; i < first.result.rows.size(); ++i) {
    EXPECT_EQ(first.result.rows[i], second.result.rows[i]) << i;
  }
  EXPECT_EQ(first.stats.null_padded_tuples,
            second.stats.null_padded_tuples);

  // And a different seed degrades a different subset (same cardinality
  // guarantees, different victims).
  DegradedRun other = RunDegradedSigsQuery(OnCallError::kNullPad, 99);
  ASSERT_TRUE(other.status.ok());
  EXPECT_EQ(other.result.rows.size(), 37u);
}

TEST(AsyncStressTest, TransientFaultsHealedByRetriesUnderDeadlines) {
  // Transient faults + pump retries + deadlines together: every call
  // eventually succeeds, so even the strict policy answers in full.
  CorpusConfig cfg;
  cfg.num_documents = 1500;
  cfg.seed = 77;
  Corpus corpus = MakePaperCorpus(cfg);
  SearchEngineConfig ecfg;
  ecfg.name = "AltaVista";
  SearchEngine engine(&corpus, ecfg);
  SimulatedSearchService::Options sopt;
  sopt.latency = LatencyModel::Fixed(500);
  sopt.faults.seed = 13;
  sopt.faults.transient_rate = 0.4;
  sopt.faults.transient_tries = 1;
  SimulatedSearchService faulty(&engine, sopt);

  WsqDatabase::Options dbopt;
  dbopt.pump_limits.default_timeout_micros = 2000000;
  dbopt.pump_limits.retry = {.max_attempts = 3,
                             .initial_backoff_micros = 500,
                             .seed = 21};
  WsqDatabase db(dbopt);
  ASSERT_TRUE(db.RegisterSearchEngine("AV", &faulty, true).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE Sigs (Name STRING)").ok());
  for (const std::string& sig : AcmSigs()) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO Sigs VALUES ('" + sig + "')").ok());
  }

  auto r = db.Execute(
      "Select Name, Count From Sigs, WebCount Where Name = T1 "
      "Order By Name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.rows.size(), 37u);
  EXPECT_GT(faulty.stats().injected_transient, 0u);
  EXPECT_GT(db.pump()->stats().retried, 0u);
  EXPECT_EQ(db.pump()->stats().failed, 0u);  // no call gave up
  EXPECT_EQ(db.pump()->pending_results(), 0u);
}

TEST(AsyncStressTest, ProliferationStorm) {
  // 60 WebPages calls each expanding toward rank limit 15: thousands
  // of patched tuples through one ReqSync.
  DemoOptions options;
  options.corpus.num_documents = 3000;
  options.latency = LatencyModel::Fixed(500);
  DemoEnv env(options);

  auto r = env.Run(
      "Select Name, URL, Rank From States, WebPages "
      "Where Name = T1 and Rank <= 15 Order By Name, Rank");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->result.rows.size(), 300u);
  // Ranks are dense per state.
  std::map<std::string, int64_t> last_rank;
  for (const Row& row : r->result.rows) {
    const std::string& state = row.value(0).AsString();
    int64_t rank = row.value(2).AsInt();
    EXPECT_EQ(rank, last_rank[state] + 1) << state;
    last_rank[state] = rank;
  }
}

}  // namespace
}  // namespace wsq
