#include "net/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "net/result_cache.h"

namespace wsq {
namespace {

/// Small shared corpus + unsharded reference engine. The reference
/// SimulatedSearchService answers over the full corpus; clusters must
/// merge back to exactly its answers.
class ShardedServiceTest : public ::testing::Test {
 protected:
  static constexpr const char* kQueries[] = {
      "colorado", "utah", "colorado utah", "nevada", "zzz_nohit"};

  static const Corpus& TestCorpus() {
    static const Corpus* const kCorpus = [] {
      CorpusConfig cfg;
      cfg.num_documents = 500;
      cfg.vocab_size = 300;
      cfg.seed = 7;
      return new Corpus(Corpus::Generate(
          cfg, {{"colorado", 3.0}, {"utah", 1.5}, {"nevada", 0.5}}));
    }();
    return *kCorpus;
  }

  static SearchEngineConfig BaseEngineConfig() {
    SearchEngineConfig cfg;
    cfg.name = "AV";
    cfg.rank_seed = 1234;
    return cfg;
  }

  static SearchResponse Reference(SearchRequest req) {
    static SearchEngine* const kEngine =
        new SearchEngine(&TestCorpus(), BaseEngineConfig());
    static SimulatedSearchService* const kService = [] {
      SimulatedSearchService::Options opt;
      opt.latency = LatencyModel::Instant();
      return new SimulatedSearchService(kEngine, opt);
    }();
    return kService->Execute(std::move(req));
  }

  static SimulatedShardCluster::Options FastCluster(size_t n) {
    SimulatedShardCluster::Options opt;
    opt.num_shards = n;
    opt.engine = BaseEngineConfig();
    opt.latency = LatencyModel::Instant();
    return opt;
  }

  static SearchRequest Count(const std::string& q) {
    SearchRequest req;
    req.kind = SearchRequest::Kind::kCount;
    req.query = q;
    return req;
  }

  static SearchRequest TopK(const std::string& q, size_t k = 10) {
    SearchRequest req;
    req.kind = SearchRequest::Kind::kTopK;
    req.query = q;
    req.k = k;
    return req;
  }

  /// Gives `destination` a hedge delay on `pump` without any option: 50
  /// instant answers (the pump's minimum sample) make its p95 0, so the
  /// delay is the 1 ms floor.
  static void WarmUp(ReqPump* pump, const std::string& destination) {
    for (int i = 0; i < 50; ++i) {
      CallId id = pump->Register(destination, [](CallCompletion done) {
        done(CallResult{Status::OK(), {}});
      });
      ASSERT_TRUE(pump->TakeBlocking(id).status.ok());
    }
  }

  static void ExpectLedgerBalanced(ReqPump* pump) {
    ReqPumpStats s = pump->stats();
    EXPECT_EQ(s.registered, s.completed + s.cancelled + s.shed)
        << "registered=" << s.registered << " completed=" << s.completed
        << " cancelled=" << s.cancelled << " shed=" << s.shed;
  }
};

constexpr const char* ShardedServiceTest::kQueries[];

TEST_F(ShardedServiceTest, ShardOfPartitionsEveryDocument) {
  const Corpus& corpus = TestCorpus();
  // The last count has more shards than the corpus has documents.
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{8},
                   corpus.size() + 12}) {
    std::vector<size_t> sizes(n, 0);
    size_t prev = 0;
    for (DocId id = 0; id < corpus.size(); ++id) {
      size_t s = corpus.ShardOf(id, n);
      ASSERT_LT(s, n);
      // Shards never decrease with the id, so each owns one contiguous
      // range.
      ASSERT_GE(s, prev) << "shards=" << n << " id=" << id;
      prev = s;
      ++sizes[s];
    }
    // The ranges are balanced to within one document. Below the corpus
    // size every shard owns some, so a merge bug on any shard is
    // visible; above it the surplus shards own nothing.
    auto [smallest, largest] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_LE(*largest - *smallest, 1u) << "shards=" << n;
    size_t empty = 0;
    for (size_t size : sizes) empty += size == 0 ? 1 : 0;
    EXPECT_EQ(empty, n > corpus.size() ? n - corpus.size() : 0)
        << "shards=" << n;
  }
}

TEST_F(ShardedServiceTest, ByteIdenticalToUnshardedAtEveryShardCount) {
  for (size_t n : {1u, 2u, 4u, 8u}) {
    SimulatedShardCluster cluster(&TestCorpus(), FastCluster(n));
    for (const char* q : kQueries) {
      SearchResponse want = Reference(Count(q));
      SearchResponse got = cluster.service()->Execute(Count(q));
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_EQ(got.count, want.count) << "shards=" << n << " q=" << q;
      EXPECT_EQ(got.shards_total, static_cast<int>(n));
      EXPECT_EQ(got.shards_failed, 0);
      EXPECT_FALSE(got.partial);

      SearchResponse want_k = Reference(TopK(q));
      SearchResponse got_k = cluster.service()->Execute(TopK(q));
      ASSERT_TRUE(got_k.status.ok()) << got_k.status.ToString();
      EXPECT_EQ(got_k.count, want_k.count);
      ASSERT_EQ(got_k.hits.size(), want_k.hits.size())
          << "shards=" << n << " q=" << q;
      for (size_t i = 0; i < got_k.hits.size(); ++i) {
        EXPECT_EQ(got_k.hits[i].url, want_k.hits[i].url);
        EXPECT_EQ(got_k.hits[i].rank, want_k.hits[i].rank);
        EXPECT_EQ(got_k.hits[i].doc, want_k.hits[i].doc);
        EXPECT_EQ(got_k.hits[i].date, want_k.hits[i].date);
        EXPECT_EQ(got_k.hits[i].score, want_k.hits[i].score);
      }
    }
    cluster.Quiesce();
    ExpectLedgerBalanced(cluster.pump());
  }
}

TEST_F(ShardedServiceTest, MoreShardsThanDocumentsLeavesEmptyShards) {
  // Six documents over eight shards: two shards own no document. They
  // answer like any other shard, with nothing, and the merge still
  // equals the unsharded engine.
  constexpr size_t kShards = 8;
  CorpusConfig cfg;
  cfg.num_documents = 6;
  cfg.vocab_size = 50;
  cfg.seed = 7;
  const Corpus tiny = Corpus::Generate(
      cfg, {{"colorado", 3.0}, {"utah", 1.5}, {"nevada", 0.5}});
  const SearchEngine reference(&tiny, BaseEngineConfig());
  SimulatedShardCluster cluster(&tiny, FastCluster(kShards));

  size_t empty_shards = 0;
  for (size_t s = 0; s < kShards; ++s) {
    bool owns = false;
    for (DocId id = 0; id < tiny.size(); ++id) {
      owns = owns || tiny.ShardOf(id, kShards) == s;
    }
    if (owns) continue;
    ++empty_shards;
    for (const char* q : kQueries) {
      SearchResponse count = cluster.node(s)->Execute(Count(q));
      ASSERT_TRUE(count.status.ok()) << count.status.ToString();
      EXPECT_EQ(count.count, 0) << "shard=" << s << " q=" << q;
      SearchResponse top = cluster.node(s)->Execute(TopK(q));
      ASSERT_TRUE(top.status.ok()) << top.status.ToString();
      EXPECT_TRUE(top.hits.empty()) << "shard=" << s << " q=" << q;
    }
  }
  EXPECT_EQ(empty_shards, kShards - tiny.size());

  size_t answered = 0;
  for (const char* q : kQueries) {
    int64_t want = *reference.Count(q);
    std::vector<SearchHit> want_hits = *reference.Search(q, 10);
    if (want > 0) ++answered;
    SearchResponse got = cluster.service()->Execute(Count(q));
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.count, want) << "q=" << q;
    EXPECT_EQ(got.shards_total, static_cast<int>(kShards));
    EXPECT_FALSE(got.partial);

    SearchResponse got_k = cluster.service()->Execute(TopK(q));
    ASSERT_TRUE(got_k.status.ok()) << got_k.status.ToString();
    ASSERT_EQ(got_k.hits.size(), want_hits.size()) << "q=" << q;
    for (size_t i = 0; i < want_hits.size(); ++i) {
      EXPECT_EQ(got_k.hits[i].url, want_hits[i].url);
      EXPECT_EQ(got_k.hits[i].rank, want_hits[i].rank);
      EXPECT_EQ(got_k.hits[i].doc, want_hits[i].doc);
      EXPECT_EQ(got_k.hits[i].date, want_hits[i].date);
      EXPECT_EQ(got_k.hits[i].score, want_hits[i].score);
    }
  }
  // The tiny corpus still answers most queries, so the merge is tested.
  EXPECT_GE(answered, 3u);
  cluster.Quiesce();
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, FailPolicyFailsWithoutLeakingCalls) {
  SimulatedShardCluster::Options opt = FastCluster(4);
  opt.shard_faults.resize(4);
  opt.shard_faults[1].permanent_rate = 1.0;  // shard 1 hard-down
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  SearchRequest req = Count("colorado");
  req.shard.policy = ShardPolicy::kFail;
  SearchResponse resp = cluster.service()->Execute(req);
  EXPECT_FALSE(resp.status.ok());
  // The representative error is the shard's own (non-transient) one.
  EXPECT_EQ(resp.status.code(), StatusCode::kExecutionError)
      << resp.status.ToString();

  cluster.Quiesce();
  ExpectLedgerBalanced(cluster.pump());
  EXPECT_EQ(cluster.service()->stats().quorum_failures, 1u);
}

TEST_F(ShardedServiceTest, QuorumPolicyDegradesWithDarkShard) {
  SimulatedShardCluster::Options opt = FastCluster(4);
  opt.shard_faults.resize(4);
  opt.shard_faults[2].permanent_rate = 1.0;
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  SearchResponse full = Reference(Count("colorado"));

  SearchRequest req = Count("colorado");
  req.shard.policy = ShardPolicy::kQuorum;
  req.shard.min_shards = 3;
  SearchResponse resp = cluster.service()->Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.partial);
  EXPECT_EQ(resp.shards_total, 4);
  EXPECT_EQ(resp.shards_failed, 1);
  // Degraded count: a true lower bound, strictly below the full answer
  // (the dark shard holds some "colorado" documents at this size).
  EXPECT_GT(resp.count, 0);
  EXPECT_LT(resp.count, full.count);

  // min_shards above the reachable shard count fails instead.
  req.shard.min_shards = 4;
  SearchResponse strict = cluster.service()->Execute(req);
  EXPECT_FALSE(strict.status.ok());

  cluster.Quiesce();
  ExpectLedgerBalanced(cluster.pump());
  ShardedServiceStats stats = cluster.service()->stats();
  EXPECT_EQ(stats.partial_results, 1u);
  EXPECT_EQ(stats.quorum_failures, 1u);
  EXPECT_EQ(stats.degraded_shards, 1u);
}

TEST_F(ShardedServiceTest, BestEffortAnswersDespiteMostShardsDark) {
  SimulatedShardCluster::Options opt = FastCluster(4);
  opt.shard_faults.resize(4);
  for (size_t s : {0u, 1u, 3u}) {
    opt.shard_faults[s].permanent_rate = 1.0;
  }
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  SearchRequest req = TopK("colorado");
  req.shard.policy = ShardPolicy::kBestEffort;
  SearchResponse resp = cluster.service()->Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.partial);
  EXPECT_EQ(resp.shards_failed, 3);
  // Whatever came back is still rank-ordered.
  for (size_t i = 0; i < resp.hits.size(); ++i) {
    EXPECT_EQ(resp.hits[i].rank, static_cast<int>(i) + 1);
  }

  cluster.Quiesce();
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, MixedPoliciesShareOneSetOfShardDispatches) {
  SimulatedShardCluster::Options opt = FastCluster(4);
  // Slow shards so the second request arrives before the first settles.
  opt.latency = LatencyModel::Fixed(20000);
  opt.shard_faults.resize(4);
  opt.shard_faults[0].permanent_rate = 1.0;
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  struct Outcome {
    Mutex mu;
    CondVar cv;
    int done WSQ_GUARDED_BY(mu) = 0;
    SearchResponse strict WSQ_GUARDED_BY(mu);
    SearchResponse lax WSQ_GUARDED_BY(mu);
  } outcome;

  // Best-effort request first: it cannot settle until every shard
  // decides (>= the 20ms shard latency), so it still holds its legs
  // when the strict request registers — even though shard 0's permanent
  // fault fails almost instantly. The other order is racy: a lone kFail
  // request can settle and take its legs before the second one joins
  // them.
  SearchRequest lax_req = Count("utah");
  lax_req.shard.policy = ShardPolicy::kBestEffort;
  cluster.service()->Submit(lax_req, [&outcome](SearchResponse r) {
    MutexLock lock(&outcome.mu);
    outcome.lax = std::move(r);
    ++outcome.done;
    outcome.cv.NotifyAll();
  });
  SearchRequest strict_req = Count("utah");
  strict_req.shard.policy = ShardPolicy::kFail;
  cluster.service()->Submit(strict_req, [&outcome](SearchResponse r) {
    MutexLock lock(&outcome.mu);
    outcome.strict = std::move(r);
    ++outcome.done;
    outcome.cv.NotifyAll();
  });

  {
    MutexLock lock(&outcome.mu);
    while (outcome.done < 2) {  // test-bounded by the ctest timeout
      outcome.cv.WaitForMicros(outcome.mu, 5000);
    }
    EXPECT_FALSE(outcome.strict.status.ok());
    ASSERT_TRUE(outcome.lax.status.ok())
        << outcome.lax.status.ToString();
    EXPECT_TRUE(outcome.lax.partial);
    EXPECT_EQ(outcome.lax.shards_failed, 1);
  }

  cluster.Quiesce();
  // Both requests shared one set of shard dispatches: the healthy
  // shards' legs joined in flight, and the dark shard's failed leg,
  // which failed inline before the second request registered, joined
  // as an answer the first request still held.
  ShardedServiceStats stats = cluster.service()->stats();
  EXPECT_EQ(stats.fanouts, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.shard_calls, 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.node(s)->stats().total_requests, 1u) << "shard " << s;
  }
  ReqPumpStats legs = cluster.pump()->stats();
  EXPECT_EQ(legs.registered, 8u);
  EXPECT_EQ(legs.dispatched, 4u);
  EXPECT_EQ(legs.joined, 4u);
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, CoalescingSharesOneFanOut) {
  SimulatedShardCluster::Options opt = FastCluster(4);
  opt.latency = LatencyModel::Fixed(20000);
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  constexpr int kWaiters = 6;
  struct Outcome {
    Mutex mu;
    CondVar cv;
    int done WSQ_GUARDED_BY(mu) = 0;
    std::vector<int64_t> counts WSQ_GUARDED_BY(mu);
  } outcome;

  for (int i = 0; i < kWaiters; ++i) {
    cluster.service()->Submit(
        Count("colorado"), [&outcome](SearchResponse r) {
          MutexLock lock(&outcome.mu);
          ASSERT_TRUE(r.status.ok()) << r.status.ToString();
          outcome.counts.push_back(r.count);
          ++outcome.done;
          outcome.cv.NotifyAll();
        });
  }
  {
    MutexLock lock(&outcome.mu);
    while (outcome.done < kWaiters) {  // bounded by the ctest timeout
      outcome.cv.WaitForMicros(outcome.mu, 5000);
    }
    int64_t want = Reference(Count("colorado")).count;
    for (int64_t c : outcome.counts) EXPECT_EQ(c, want);
  }

  cluster.Quiesce();
  // Every leg after the first request's joined it on the pump: each
  // shard served the query once.
  ShardedServiceStats stats = cluster.service()->stats();
  EXPECT_EQ(stats.fanouts, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kWaiters - 1));
  EXPECT_EQ(stats.shard_calls, 4u);
  ReqPumpStats legs = cluster.pump()->stats();
  EXPECT_EQ(legs.dispatched, 4u);
  EXPECT_EQ(legs.joined, 4u * (kWaiters - 1));
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.node(s)->stats().completed_requests, 1u)
        << "shard " << s;
  }
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, FailedPrimaryFailsOverToReplica) {
  SimulatedShardCluster::Options opt = FastCluster(4);
  opt.with_replicas = true;
  opt.shard_faults.resize(4);
  opt.shard_faults[1].permanent_rate = 1.0;  // primary 1 dark; replica fine
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  SearchRequest req = Count("colorado");
  req.shard.policy = ShardPolicy::kFail;  // only passes via the replica
  SearchResponse resp = cluster.service()->Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.partial);
  EXPECT_EQ(resp.count, Reference(Count("colorado")).count);

  cluster.Quiesce();
  ShardedServiceStats stats = cluster.service()->stats();
  EXPECT_GE(stats.hedges, 1u);
  EXPECT_GE(stats.hedge_wins, 1u);
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, SlowPrimaryIsHedgedAndLoserReaped) {
  SimulatedShardCluster::Options opt = FastCluster(2);
  opt.with_replicas = true;
  // Primaries stall 200ms before forwarding; replicas are clean, so the
  // latency-triggered hedge (1 ms after the warm-up) wins every shard.
  opt.shard_faults.resize(2);
  for (auto& plan : opt.shard_faults) {
    plan.delay_rate = 1.0;
    plan.delay_micros = 200000;
  }
  opt.service.call_timeout_micros = 2000000;
  SimulatedShardCluster cluster(&TestCorpus(), opt);
  for (size_t s = 0; s < 2; ++s) {
    WarmUp(cluster.pump(), cluster.node(s)->name());
  }
  const ReqPumpStats warm = cluster.pump()->stats();

  SearchRequest req = TopK("colorado");
  req.shard.policy = ShardPolicy::kFail;
  SearchResponse want = Reference(TopK("colorado"));
  SearchResponse resp = cluster.service()->Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.partial);
  ASSERT_EQ(resp.hits.size(), want.hits.size());
  for (size_t i = 0; i < resp.hits.size(); ++i) {
    EXPECT_EQ(resp.hits[i].url, want.hits[i].url);
  }

  ShardedServiceStats stats = cluster.service()->stats();
  EXPECT_EQ(stats.hedges, 2u);
  EXPECT_EQ(stats.hedge_wins, 2u);
  ReqPumpStats legs = cluster.pump()->stats();
  EXPECT_EQ(legs.hedged - warm.hedged, 2u);
  EXPECT_EQ(legs.hedge_wins - warm.hedge_wins, 2u);

  // The pump abandoned the losing primaries; their delayed forwards land
  // in its core and are discarded. The ledger must balance, not leak.
  cluster.Quiesce();
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, IdenticalRequestsShareHedgesAndCountEachWinOnce) {
  SimulatedShardCluster::Options opt = FastCluster(2);
  opt.with_replicas = true;
  // Primaries stall 200ms on top of the 20ms every node takes, so each
  // shard's hedge (1 ms after the warm-up) wins; the second request's
  // legs join the first's while those are out, and share their hedges.
  opt.latency = LatencyModel::Fixed(20000);
  opt.shard_faults.resize(2);
  for (auto& plan : opt.shard_faults) {
    plan.delay_rate = 1.0;
    plan.delay_micros = 200000;
  }
  opt.service.call_timeout_micros = 2000000;
  SimulatedShardCluster cluster(&TestCorpus(), opt);
  for (size_t s = 0; s < 2; ++s) {
    WarmUp(cluster.pump(), cluster.node(s)->name());
  }
  const ReqPumpStats warm = cluster.pump()->stats();

  struct Outcome {
    Mutex mu;
    CondVar cv;
    std::vector<SearchResponse> responses WSQ_GUARDED_BY(mu);
  } outcome;
  for (int r = 0; r < 2; ++r) {
    SearchRequest req = Count("colorado");
    req.shard.policy = ShardPolicy::kFail;
    cluster.service()->Submit(req, [&outcome](SearchResponse resp) {
      MutexLock lock(&outcome.mu);
      outcome.responses.push_back(std::move(resp));
      outcome.cv.NotifyAll();
    });
  }
  {
    MutexLock lock(&outcome.mu);
    while (outcome.responses.size() < 2) {  // bounded by the ctest timeout
      outcome.cv.WaitForMicros(outcome.mu, 5000);
    }
    for (const SearchResponse& resp : outcome.responses) {
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_EQ(resp.count, Reference(Count("colorado")).count);
    }
  }

  cluster.Quiesce();
  // Hedges and their wins are both counted per dispatch: the second
  // request's shards were won by hedges of the legs it joined, which
  // count neither. So wins never exceed hedges.
  ShardedServiceStats stats = cluster.service()->stats();
  EXPECT_EQ(stats.hedges, 2u);
  EXPECT_EQ(stats.hedge_wins, 2u);
  EXPECT_LE(stats.hedge_wins, stats.hedges);
  EXPECT_EQ(stats.shard_calls, 4u);
  // Four engine requests: two primaries and their two hedges. A hedge is
  // no registration, so only the second request's two legs joined.
  ReqPumpStats legs = cluster.pump()->stats();
  EXPECT_EQ(legs.dispatched - warm.dispatched, 2u);
  EXPECT_EQ(legs.hedged - warm.hedged, 2u);
  EXPECT_EQ(legs.joined - warm.joined, 2u);
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, OuterCancelOfOneWaiterSparesTheOthers) {
  // The DB-side pump registers logical calls against the sharded
  // service; cancelling one of two identical calls must not disturb the
  // shard legs they share or the surviving call.
  SimulatedShardCluster::Options opt = FastCluster(4);
  opt.latency = LatencyModel::Fixed(20000);
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  ReqPump outer;
  auto call = [&cluster](CallCompletion done) {
    cluster.service()->Submit(
        Count("colorado"), [done](SearchResponse resp) {
          CallResult result;
          result.status = resp.status;
          if (resp.status.ok()) {
            result.rows.push_back(Row({Value::Int(resp.count)}));
          }
          done(std::move(result));
        });
  };
  CallId a = outer.Register("AV", call);
  CallId b = outer.Register("AV", call);

  ASSERT_TRUE(outer.CancelCall(a));
  CallResult cancelled;
  ASSERT_TRUE(outer.TryTake(a, &cancelled));
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);

  CallResult survivor = outer.TakeBlocking(b);
  ASSERT_TRUE(survivor.status.ok()) << survivor.status.ToString();
  ASSERT_EQ(survivor.rows.size(), 1u);
  EXPECT_EQ(survivor.rows[0].value(0).AsInt(),
            Reference(Count("colorado")).count);

  cluster.Quiesce();
  outer.Drain();
  ShardedServiceStats stats = cluster.service()->stats();
  EXPECT_EQ(stats.fanouts, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(cluster.pump()->stats().dispatched, 4u);
  ExpectLedgerBalanced(cluster.pump());
}

TEST_F(ShardedServiceTest, DestructionFailsOutstandingWaiters) {
  SimulatedShardCluster::Options opt = FastCluster(2);
  opt.shard_faults.resize(2);
  opt.shard_faults[0].hang_rate = 1.0;
  opt.shard_faults[1].hang_rate = 1.0;
  opt.service.call_timeout_micros = 60000000;  // only teardown resolves

  struct Outcome {
    Mutex mu;
    CondVar cv;
    bool done WSQ_GUARDED_BY(mu) = false;
    Status status WSQ_GUARDED_BY(mu);
  } outcome;
  {
    SimulatedShardCluster cluster(&TestCorpus(), opt);
    cluster.service()->Submit(
        Count("colorado"), [&outcome](SearchResponse resp) {
          MutexLock lock(&outcome.mu);
          outcome.done = true;
          outcome.status = resp.status;
          outcome.cv.NotifyAll();
        });
    // Destroying the cluster (service first, then pump, then the nodes
    // releasing their hung calls) must complete the waiter.
  }
  MutexLock lock(&outcome.mu);
  ASSERT_TRUE(outcome.done);
  EXPECT_FALSE(outcome.status.ok());
}

TEST_F(ShardedServiceTest, CacheRejectsPartialResponses) {
  SimulatedShardCluster::Options opt = FastCluster(4);
  opt.shard_faults.resize(4);
  opt.shard_faults[3].permanent_rate = 1.0;
  SimulatedShardCluster cluster(&TestCorpus(), opt);

  ResultCache cache(16);
  CachingSearchService cached(cluster.service(), &cache);

  // Partial (best-effort, one shard dark): served, but never admitted.
  SearchRequest req = Count("colorado");
  req.shard.policy = ShardPolicy::kBestEffort;
  SearchResponse degraded = cached.Execute(req);
  ASSERT_TRUE(degraded.status.ok());
  ASSERT_TRUE(degraded.partial);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejected, 1u);

  // Failures are not admitted either.
  SearchRequest fail_req = Count("colorado");
  fail_req.shard.policy = ShardPolicy::kFail;
  SearchResponse failed = cached.Execute(fail_req);
  ASSERT_FALSE(failed.status.ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejected, 2u);

  // A complete response (query missing the dark shard's documents is
  // still partial-free only if no shard failed — use a healthy cluster).
  cluster.Quiesce();
  ExpectLedgerBalanced(cluster.pump());

  SimulatedShardCluster healthy(&TestCorpus(), FastCluster(2));
  CachingSearchService healthy_cached(healthy.service(), &cache);
  SearchResponse full = healthy_cached.Execute(Count("colorado"));
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.partial);
  EXPECT_EQ(cache.size(), 1u);
  SearchResponse hit = healthy_cached.Execute(Count("colorado"));
  EXPECT_EQ(hit.count, full.count);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ShardedServiceTest, CallbacksAfterDestructionNeverTouchTheService) {
  // A destination of its own, so no other case's latency history hedges
  // its calls.
  SearchEngineConfig cfg = BaseEngineConfig();
  cfg.name = "late_callbacks";
  SearchEngine engine(&TestCorpus(), cfg);
  SimulatedSearchService::Options fast;
  fast.latency = LatencyModel::Instant();
  SimulatedSearchService::Options slow;
  slow.latency = LatencyModel::Fixed(50000);
  SimulatedSearchService fast_primary(&engine, fast);
  SimulatedSearchService slow_primary(&engine, slow);
  SimulatedSearchService replica(&engine, fast);
  ReqPump pump;  // outlives the service, as in SimulatedShardCluster

  // Park the pump's timer thread in a result notification, so the
  // service's leg notifications pile up behind it.
  struct Gate {
    Mutex mu;
    CondVar cv;
    bool entered WSQ_GUARDED_BY(mu) = false;
    bool open WSQ_GUARDED_BY(mu) = false;
    bool sentinel WSQ_GUARDED_BY(mu) = false;
  } gate;
  auto answer = [](CallCompletion done) { done(CallResult{Status::OK(), {}}); };
  CallId parked = pump.Register("gate", answer, 0, [&gate] {
    MutexLock lock(&gate.mu);
    gate.entered = true;
    gate.cv.NotifyAll();
    while (!gate.open) gate.cv.WaitForMicros(gate.mu, 5000);
  });
  {
    MutexLock lock(&gate.mu);
    while (!gate.entered) gate.cv.WaitForMicros(gate.mu, 5000);
  }

  auto service = std::make_unique<ShardedSearchService>(
      std::vector<ShardedSearchService::Shard>{{&fast_primary, &replica},
                                               {&slow_primary, &replica}},
      &pump, ShardedSearchService::Options{});
  Status status;
  service->Submit(Count("colorado"),
                  [&status](SearchResponse resp) { status = resp.status; });
  // Shard 0's leg lands (its notification queues) while the timer
  // thread is parked.
  while (pump.stats().completed < 2) {  // bounded by the ctest timeout
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.reset();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);

  // Release the pile-up; a later notification runs after all of it.
  CallId last = pump.Register("gate", answer, 0, [&gate] {
    MutexLock lock(&gate.mu);
    gate.sentinel = true;
    gate.cv.NotifyAll();
  });
  {
    MutexLock lock(&gate.mu);
    gate.open = true;
    gate.cv.NotifyAll();
    while (!gate.sentinel) gate.cv.WaitForMicros(gate.mu, 5000);
  }
  // The notifications found no service. With no latency history on its
  // destination, no leg was hedged: the pump registered the two legs and
  // the two gate calls only.
  ReqPumpStats stats = pump.stats();
  EXPECT_EQ(stats.registered, 4u);
  EXPECT_EQ(stats.hedged, 0u);
  EXPECT_TRUE(pump.TakeBlocking(parked).status.ok());
  EXPECT_TRUE(pump.TakeBlocking(last).status.ok());
  slow_primary.Quiesce();
  ExpectLedgerBalanced(&pump);
}

/// Answers every request with a permanent error, inline in Submit.
class InlineFailingService : public SearchService {
 public:
  explicit InlineFailingService(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  void Submit(SearchRequest, SearchCallback done) override {
    done(SearchResponse{Status::ExecutionError(name_ + " is down"), 0, {}});
  }

 private:
  std::string name_;
};

TEST_F(ShardedServiceTest, InlineFailuresOnBothLegsFailAFailWaiter) {
  // Shard 0's primary fails inside Submit, so its failover registers the
  // replica leg while the service lock is held, and the replica fails
  // inside that Register in turn.
  InlineFailingService primary("AV.shard0");
  InlineFailingService replica("AV.shard0r");
  SearchEngine engine(&TestCorpus(), BaseEngineConfig());
  SimulatedSearchService::Options fast;
  fast.latency = LatencyModel::Instant();
  SimulatedSearchService healthy(&engine, fast);
  ReqPump pump;
  ShardedSearchService service({{&primary, &replica}, {&healthy, nullptr}},
                               &pump, ShardedSearchService::Options{});

  SearchRequest req = Count("colorado");
  req.shard.policy = ShardPolicy::kFail;
  SearchResponse resp = service.Execute(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kExecutionError)
      << resp.status.ToString();

  service.Quiesce();
  ShardedServiceStats stats = service.stats();
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.quorum_failures, 1u);
  healthy.Quiesce();
  ExpectLedgerBalanced(&pump);
}

}  // namespace
}  // namespace wsq
