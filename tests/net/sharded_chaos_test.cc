// Seeded chaos sweep for the sharded scatter-gather backend: every
// combination of fault mix x policy x seed must preserve the service
// invariants — every submitted request completes exactly once, OK
// responses are correct (complete) or correctly labelled (partial),
// counts never exceed the unsharded truth, and the pump ledger
// balances (no leaked or double-resolved shard calls). Runs under
// `ctest -L chaos`, including the TSan CI job.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/sharded_service.h"

namespace wsq {
namespace {

struct ChaosCase {
  const char* name;
  FaultPlan plan;       // applied to every shard (seed varied per run)
  bool with_replicas;
};

std::vector<ChaosCase> Cases() {
  std::vector<ChaosCase> cases;
  {
    ChaosCase c{"transient_flaps", FaultPlan{}, false};
    c.plan.transient_rate = 0.4;
    c.plan.transient_tries = 1;  // pump retries absorb these
    cases.push_back(c);
  }
  {
    ChaosCase c{"permanent_pockets", FaultPlan{}, false};
    c.plan.permanent_rate = 0.25;
    cases.push_back(c);
  }
  {
    ChaosCase c{"hangs_vs_timeouts", FaultPlan{}, false};
    c.plan.hang_rate = 0.2;  // resolved by the per-call pump deadline
    cases.push_back(c);
  }
  {
    ChaosCase c{"latency_spikes_hedged", FaultPlan{}, true};
    c.plan.delay_rate = 0.3;
    c.plan.delay_micros = 50000;
    cases.push_back(c);
  }
  {
    ChaosCase c{"everything_at_once", FaultPlan{}, true};
    c.plan.transient_rate = 0.2;
    c.plan.permanent_rate = 0.1;
    c.plan.hang_rate = 0.1;
    c.plan.delay_rate = 0.2;
    c.plan.delay_micros = 30000;
    cases.push_back(c);
  }
  return cases;
}

class ShardedChaosTest : public ::testing::Test {
 protected:
  static const Corpus& TestCorpus() {
    static const Corpus* const kCorpus = [] {
      CorpusConfig cfg;
      cfg.num_documents = 400;
      cfg.vocab_size = 250;
      cfg.seed = 11;
      return new Corpus(Corpus::Generate(
          cfg, {{"colorado", 2.5}, {"utah", 1.0}}));
    }();
    return *kCorpus;
  }

  /// Unsharded ground truth per query (counts are upper bounds for any
  /// partial answer).
  static int64_t TruthCount(const std::string& q) {
    static SearchEngine* const kEngine = [] {
      SearchEngineConfig cfg;
      cfg.name = "AV";
      cfg.rank_seed = 77;
      return new SearchEngine(&TestCorpus(), cfg);
    }();
    auto r = kEngine->Count(q);
    return r.ok() ? *r : 0;
  }
};

TEST_F(ShardedChaosTest, SweepPreservesInvariants) {
  const std::vector<std::string> queries = {"colorado", "utah",
                                            "colorado utah", "w12"};
  const ShardPolicy policies[] = {ShardPolicy::kFail,
                                  ShardPolicy::kQuorum,
                                  ShardPolicy::kBestEffort};
  for (const ChaosCase& c : Cases()) {
    for (uint64_t seed : {3u, 17u}) {
      SimulatedShardCluster::Options opt;
      opt.num_shards = 4;
      opt.engine.name = "AV";
      opt.engine.rank_seed = 77;
      opt.latency = LatencyModel{2000, 1000, 0.0, 1.0};
      opt.seed = seed;
      opt.with_replicas = c.with_replicas;
      opt.shard_faults.assign(4, c.plan);
      for (size_t s = 0; s < 4; ++s) {
        opt.shard_faults[s].seed = seed * 100 + s;
      }
      // Hung shard calls must resolve via the pump deadline, quickly.
      opt.service.call_timeout_micros = 40000;
      SimulatedShardCluster cluster(&TestCorpus(), opt);

      struct Tally {
        Mutex mu;
        CondVar cv;
        int done WSQ_GUARDED_BY(mu) = 0;
        int bad WSQ_GUARDED_BY(mu) = 0;
        std::vector<std::string> problems WSQ_GUARDED_BY(mu);
      } tally;
      int submitted = 0;

      for (int round = 0; round < 3; ++round) {
        for (const std::string& q : queries) {
          for (ShardPolicy policy : policies) {
            SearchRequest req;
            req.kind = SearchRequest::Kind::kCount;
            req.query = q;
            req.shard.policy = policy;
            if (policy == ShardPolicy::kQuorum) req.shard.min_shards = 3;
            ++submitted;
            int64_t truth = TruthCount(q);
            cluster.service()->Submit(
                req, [&tally, truth, policy](SearchResponse resp) {
                  MutexLock lock(&tally.mu);
                  if (resp.status.ok()) {
                    if (resp.count > truth) {
                      ++tally.bad;
                      tally.problems.push_back(
                          "count above unsharded truth");
                    }
                    if (resp.partial && resp.shards_failed == 0) {
                      ++tally.bad;
                      tally.problems.push_back(
                          "partial with zero failed shards");
                    }
                    if (!resp.partial && resp.count != truth) {
                      ++tally.bad;
                      tally.problems.push_back(
                          "complete response with wrong count");
                    }
                    if (policy == ShardPolicy::kFail && resp.partial) {
                      ++tally.bad;
                      tally.problems.push_back(
                          "fail policy delivered a partial result");
                    }
                  }
                  ++tally.done;
                  tally.cv.NotifyAll();
                });
          }
        }
      }

      {
        MutexLock lock(&tally.mu);
        while (tally.done < submitted) {  // bounded by the ctest timeout
          tally.cv.WaitForMicros(tally.mu, 5000);
        }
        EXPECT_EQ(tally.bad, 0)
            << c.name << " seed=" << seed << " first problem: "
            << (tally.problems.empty() ? "-" : tally.problems[0]);
      }

      cluster.Quiesce();
      cluster.pump()->Drain();
      ReqPumpStats s = cluster.pump()->stats();
      EXPECT_EQ(s.registered, s.completed + s.cancelled + s.shed)
          << c.name << " seed=" << seed;
    }
  }
}

/// Same sweep but through the blocking Execute path with a dark shard
/// flapping via an outage window: exercises breaker trips + recovery
/// against the leg notifications.
TEST_F(ShardedChaosTest, OutageWindowTripsBreakerAndRecovers) {
  SimulatedShardCluster::Options opt;
  opt.num_shards = 2;
  opt.engine.name = "AV";
  opt.engine.rank_seed = 77;
  opt.latency = LatencyModel::Instant();
  opt.shard_faults.resize(2);
  // Shard 0: arrivals 1..5 all fail (kUnavailable) — enough consecutive
  // transient failures to trip the breaker below; later arrivals pass.
  // Keep the window short: once the breaker opens, only half-open
  // probes reach the node, so each remaining outage arrival costs a
  // full cooldown.
  opt.shard_faults[0].outage_start = 1;
  opt.shard_faults[0].outage_length = 5;
  opt.pump_limits.retry.max_attempts = 1;
  opt.pump_limits.breaker->failure_threshold = 3;
  opt.pump_limits.breaker->cooldown_micros = 20000;
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  SearchRequest req;
  req.kind = SearchRequest::Kind::kCount;
  req.query = "colorado";
  req.shard.policy = ShardPolicy::kBestEffort;

  int64_t truth = TruthCount("colorado");
  bool recovered = false;
  // Enough rounds to burn through the outage, the breaker cooldown and
  // the half-open probe. Every answer must stay within bounds.
  for (int i = 0; i < 150 && !recovered; ++i) {
    SearchResponse resp = cluster.service()->Execute(req);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_LE(resp.count, truth);
    if (!resp.partial) {
      EXPECT_EQ(resp.count, truth);
      recovered = true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(2000));
  }
  EXPECT_TRUE(recovered)
      << "shard 0 never recovered through breaker half-open";

  cluster.Quiesce();
  ReqPumpStats s = cluster.pump()->stats();
  EXPECT_EQ(s.registered, s.completed + s.cancelled + s.shed);
}

}  // namespace
}  // namespace wsq
