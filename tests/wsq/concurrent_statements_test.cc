// The concurrent-statement contract of WsqDatabase (database.h): SELECT
// and EXPLAIN through Execute, and DsqEngine::Explain, may run on one
// database from any number of threads. Four threads start together and
// run the same async SELECT and the same DSQ explanation, so their
// identical searches are in flight together on the shared ReqPump and
// join. Labelled `stress`, so CI runs it under TSan.

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "dsq/dsq_engine.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

/// One ranked DSQ term, comparable.
struct Term {
  std::string term;
  std::string source;
  int64_t count;
  bool operator==(const Term&) const = default;
};

std::vector<Term> Terms(const DsqEngine::Explanation& e) {
  std::vector<Term> out;
  for (const DsqEngine::TermScore& t : e.terms) {
    out.push_back({t.term, t.source, t.count});
  }
  return out;
}

TEST(ConcurrentStatementsTest, SameStatementsOnFourThreadsJoinAndAgree) {
  constexpr int kThreads = 4;
  DemoOptions opt;
  opt.corpus.num_documents = 2000;
  // Long enough that the threads' identical calls overlap.
  opt.latency = LatencyModel::Fixed(20000);
  DemoEnv env(opt);
  const std::string sql =
      "Select Name, Count From States, WebCount Where Name = T1 "
      "Order By Name";
  const std::string phrase = "scuba diving";
  const std::vector<std::string> columns = {"States.Name"};

  // The single-threaded answers.
  auto want = env.Run(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->result.rows.size(), 50u);
  auto want_dsq = DsqEngine(&env.db(), &env.altavista_service())
                      .Explain(phrase, columns);
  ASSERT_TRUE(want_dsq.ok()) << want_dsq.status().ToString();

  ReqPump* pump = env.db().pump();
  auto requests = [&env] {
    return env.altavista_service().stats().total_requests +
           env.google_service().stats().total_requests;
  };
  const ReqPumpStats before = pump->stats();
  const uint64_t requests_before = requests();
  const size_t pending_before = pump->pending_results();

  std::vector<Result<QueryExecution>> selects(
      kThreads, Status::Internal("not run"));
  std::vector<Result<DsqEngine::Explanation>> explanations(
      kThreads, Status::Internal("not run"));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      selects[t] = env.db().Execute(sql);
      explanations[t] = DsqEngine(&env.db(), &env.altavista_service())
                            .Explain(phrase, columns);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(selects[t].ok()) << selects[t].status().ToString();
    EXPECT_EQ(selects[t]->result.rows, want->result.rows) << "thread " << t;
    ASSERT_TRUE(explanations[t].ok())
        << explanations[t].status().ToString();
    EXPECT_EQ(Terms(*explanations[t]), Terms(*want_dsq)) << "thread " << t;
    EXPECT_EQ(explanations[t]->external_calls, want_dsq->external_calls);
  }
  pump->Drain();
  const ReqPumpStats after = pump->stats();
  const uint64_t registered = after.registered - before.registered;
  EXPECT_GT(after.joined, before.joined);
  EXPECT_LT(requests() - requests_before, registered);
  EXPECT_EQ(after.registered, after.completed + after.cancelled + after.shed);
  EXPECT_EQ(pump->pending_results(), pending_before);
}

}  // namespace
}  // namespace wsq
