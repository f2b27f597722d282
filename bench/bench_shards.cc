// Shard-count scaling for the scatter-gather search backend
// (net/sharded_service.h): one synthetic corpus queried through
// SimulatedShardClusters at N = 1/2/4/8 under a Zipf-skewed
// multi-threaded query mix. Reports per-N QPS and latency quantiles,
// the coalesce hit-rate (the share of shard legs that joined an
// identical leg on the cluster's pump, in flight or answered while its
// request was unsettled) and the hedge fire-rate, plus a dark-shard
// section exercising the three quorum policies.
//
// Emits BENCH_shards.json (run from the repo root). Gates, checked
// with --check (non-zero exit on violation):
//   - merged results identical to the unsharded reference at every N
//   - with one shard dark, 3-of-4 quorum still answers (degraded)
//   - best-effort p99 with a dark shard stays <= 2x the fault-free p99
//   - the fail policy reports kUnavailable and the pump ledger stays
//     balanced (no leaked shard calls)

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/clock.h"
#include "common/random.h"
#include "net/sharded_service.h"
#include "web/corpus.h"

namespace {

using wsqbench::Json;

constexpr size_t kThreads = 8;
constexpr size_t kQueriesPerThread = 150;
constexpr size_t kDarkThreads = 4;
constexpr size_t kDarkQueriesPerThread = 60;
constexpr size_t kQueryTerms = 32;
constexpr double kZipfSkew = 1.1;
constexpr uint64_t kSeed = 11;
constexpr size_t kShardCounts[] = {1, 2, 4, 8};

const wsq::Corpus& BenchCorpus() {
  static const wsq::Corpus* const kCorpus = [] {
    wsq::CorpusConfig cfg;
    cfg.num_documents = 1500;
    cfg.vocab_size = 400;
    cfg.seed = kSeed;
    return new wsq::Corpus(wsq::Corpus::Generate(
        cfg, {{"colorado", 3.0}, {"utah", 1.5}, {"nevada", 0.5}}));
  }();
  return *kCorpus;
}

wsq::SearchEngineConfig EngineConfig() {
  wsq::SearchEngineConfig cfg;
  cfg.name = "AV";
  cfg.rank_seed = 1234;
  return cfg;
}

/// Zipf-ranked query vocabulary: the planted entities first (the hot
/// head, so identical legs have something to join), then background
/// vocabulary words.
std::vector<std::string> QueryTerms() {
  std::vector<std::string> terms = {"colorado", "utah", "nevada"};
  std::span<const std::string> vocab = BenchCorpus().vocabulary();
  for (size_t i = 0; i < vocab.size() && terms.size() < kQueryTerms; ++i) {
    terms.push_back(vocab[i]);
  }
  return terms;
}

wsq::SearchRequest Count(const std::string& q) {
  wsq::SearchRequest req;
  req.kind = wsq::SearchRequest::Kind::kCount;
  req.query = q;
  return req;
}

wsq::SearchRequest TopK(const std::string& q, size_t k = 10) {
  wsq::SearchRequest req;
  req.kind = wsq::SearchRequest::Kind::kTopK;
  req.query = q;
  req.k = k;
  return req;
}

/// Unsharded ground truth (instant latency: correctness only).
wsq::SearchResponse Reference(wsq::SearchRequest req) {
  static wsq::SearchEngine* const kEngine =
      new wsq::SearchEngine(&BenchCorpus(), EngineConfig());
  static wsq::SimulatedSearchService* const kService = [] {
    wsq::SimulatedSearchService::Options opt;
    opt.latency = wsq::LatencyModel::Instant();
    return new wsq::SimulatedSearchService(kEngine, opt);
  }();
  return kService->Execute(std::move(req));
}

bool SameResponse(const wsq::SearchResponse& a,
                  const wsq::SearchResponse& b) {
  if (a.count != b.count || a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].url != b.hits[i].url || a.hits[i].rank != b.hits[i].rank ||
        a.hits[i].doc != b.hits[i].doc || a.hits[i].date != b.hits[i].date ||
        a.hits[i].score != b.hits[i].score) {
      return false;
    }
  }
  return true;
}

/// The measured workload: wide-area latency with a heavy tail (the
/// tail is what hedging clips) and replicas for the hedges to land on.
wsq::SimulatedShardCluster::Options ScalingOptions(size_t n) {
  wsq::SimulatedShardCluster::Options opt;
  opt.num_shards = n;
  opt.engine = EngineConfig();
  opt.latency = wsq::LatencyModel{2000, 1000, 0.05, 5.0};
  opt.seed = kSeed;
  opt.with_replicas = true;
  return opt;
}

/// Dark-shard fixture: 4 shards, shard 1 unreachable (every call
/// answers kUnavailable, never healing), no replicas to hide behind.
/// `dark` false gives the byte-equal fault-free baseline.
wsq::SimulatedShardCluster::Options DarkOptions(bool dark) {
  wsq::SimulatedShardCluster::Options opt;
  opt.num_shards = 4;
  opt.engine = EngineConfig();
  opt.latency = wsq::LatencyModel{2000, 1000, 0.05, 5.0};
  opt.seed = kSeed;
  opt.with_replicas = false;
  opt.pump_limits.retry.max_attempts = 2;
  if (dark) {
    opt.shard_faults.resize(4);
    opt.shard_faults[1].transient_rate = 1.0;
    opt.shard_faults[1].transient_tries = 1u << 30;
  }
  return opt;
}

struct WorkloadResult {
  double wall_seconds = 0;
  double qps = 0;
  int64_t p50 = 0, p95 = 0, p99 = 0;
  uint64_t ok = 0, partial = 0, failed = 0, unavailable = 0;
  bool counts_bounded = true;
  wsq::ShardedServiceStats stats;
  /// The cluster pump's ledger after the run (leg joins included).
  wsq::ReqPumpStats pump;
  bool ledger_balanced = false;
};

int64_t Percentile(std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

WorkloadResult RunWorkload(wsq::SimulatedShardCluster& cluster,
                           wsq::ShardPolicy policy, size_t min_shards,
                           const std::vector<std::string>& terms,
                           const std::map<std::string, int64_t>& truth,
                           size_t threads, size_t per_thread) {
  const wsq::ZipfDistribution zipf(terms.size(), kZipfSkew);
  WorkloadResult out;
  std::vector<std::vector<int64_t>> lat(threads);
  std::atomic<uint64_t> ok{0}, partial{0}, failed{0}, unavailable{0};
  std::atomic<bool> bounded{true};

  wsq::Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      wsq::Rng rng(kSeed * 977 + t);
      lat[t].reserve(per_thread);
      for (size_t i = 0; i < per_thread; ++i) {
        const std::string& term = terms[zipf.Sample(rng)];
        bool count = rng.NextDouble() < 0.7;
        wsq::SearchRequest req = count ? Count(term) : TopK(term);
        req.shard.policy = policy;
        req.shard.min_shards = min_shards;
        wsq::Stopwatch timer;
        wsq::SearchResponse resp = cluster.service()->Execute(req);
        lat[t].push_back(timer.ElapsedMicros());
        if (resp.status.ok()) {
          ++ok;
          if (resp.partial) ++partial;
          if (count && resp.count > truth.at(term)) bounded = false;
        } else {
          ++failed;
          if (resp.status.code() == wsq::StatusCode::kUnavailable) {
            ++unavailable;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  out.wall_seconds =
      static_cast<double>(wall.ElapsedMicros()) / 1e6;

  std::vector<int64_t> all;
  for (std::vector<int64_t>& v : lat) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  out.p50 = Percentile(all, 0.50);
  out.p95 = Percentile(all, 0.95);
  out.p99 = Percentile(all, 0.99);
  out.qps = out.wall_seconds > 0
                ? static_cast<double>(all.size()) / out.wall_seconds
                : 0.0;
  out.ok = ok;
  out.partial = partial;
  out.failed = failed;
  out.unavailable = unavailable;
  out.counts_bounded = bounded;
  out.stats = cluster.service()->stats();

  cluster.Quiesce();
  out.pump = cluster.pump()->stats();
  out.ledger_balanced = out.pump.registered ==
                        out.pump.completed + out.pump.cancelled + out.pump.shed;
  return out;
}

double Rate(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

Json LatencyJson(const WorkloadResult& r) {
  Json j = Json::Object();
  j.Set("qps", r.qps)
      .Set("p50_micros", static_cast<long long>(r.p50))
      .Set("p95_micros", static_cast<long long>(r.p95))
      .Set("p99_micros", static_cast<long long>(r.p99));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
  const std::vector<std::string> terms = QueryTerms();

  // Ground truth per term (for lower-bound checks under degradation).
  std::map<std::string, int64_t> truth;
  for (const std::string& t : terms) truth[t] = Reference(Count(t)).count;

  const char* kProbeQueries[] = {"colorado", "utah", "colorado utah",
                                 "nevada", "zzz_nohit"};

  Json scaling = Json::Array();
  bool identical_all = true;
  for (size_t n : kShardCounts) {
    wsq::SimulatedShardCluster cluster(&BenchCorpus(), ScalingOptions(n));

    // Correctness probe first: merged answers must match the unsharded
    // reference exactly (count and the full top-k hit list).
    bool identical = true;
    for (const char* q : kProbeQueries) {
      if (!SameResponse(cluster.service()->Execute(Count(q)),
                        Reference(Count(q))) ||
          !SameResponse(cluster.service()->Execute(TopK(q)),
                        Reference(TopK(q)))) {
        identical = false;
      }
    }
    identical_all = identical_all && identical;

    WorkloadResult r =
        RunWorkload(cluster, wsq::ShardPolicy::kFail, 0, terms, truth,
                    kThreads, kQueriesPerThread);
    const wsq::ShardedServiceStats& s = r.stats;
    Json row = Json::Object();
    row.Set("shards", static_cast<long long>(n))
        .Set("identical_to_unsharded", identical)
        .Set("queries", static_cast<long long>(r.ok + r.failed))
        .Set("qps", r.qps)
        .Set("p50_micros", static_cast<long long>(r.p50))
        .Set("p95_micros", static_cast<long long>(r.p95))
        .Set("p99_micros", static_cast<long long>(r.p99))
        .Set("coalesce_hit_rate", Rate(r.pump.joined, r.pump.registered))
        .Set("hedge_fire_rate", Rate(s.hedges, s.shard_calls - s.hedges))
        .Set("hedge_win_rate", Rate(s.hedge_wins, s.hedges))
        .Set("shard_calls", s.shard_calls)
        .Set("ledger_balanced", r.ledger_balanced);
    scaling.Push(std::move(row));
  }

  // Dark-shard section: same workload shape at N=4 with shard 1 dark.
  wsq::SimulatedShardCluster baseline(&BenchCorpus(), DarkOptions(false));
  WorkloadResult fault_free =
      RunWorkload(baseline, wsq::ShardPolicy::kBestEffort, 0, terms, truth,
                  kDarkThreads, kDarkQueriesPerThread);

  wsq::SimulatedShardCluster dark_best(&BenchCorpus(), DarkOptions(true));
  WorkloadResult best =
      RunWorkload(dark_best, wsq::ShardPolicy::kBestEffort, 0, terms, truth,
                  kDarkThreads, kDarkQueriesPerThread);

  wsq::SimulatedShardCluster dark_quorum(&BenchCorpus(), DarkOptions(true));
  WorkloadResult quorum =
      RunWorkload(dark_quorum, wsq::ShardPolicy::kQuorum, 3, terms, truth,
                  kDarkThreads, kDarkQueriesPerThread);

  wsq::SimulatedShardCluster dark_fail(&BenchCorpus(), DarkOptions(true));
  WorkloadResult fail =
      RunWorkload(dark_fail, wsq::ShardPolicy::kFail, 0, terms, truth,
                  kDarkThreads, kDarkQueriesPerThread);

  const uint64_t dark_total = kDarkThreads * kDarkQueriesPerThread;
  bool quorum_gate = quorum.ok == dark_total &&
                     quorum.partial == dark_total && quorum.counts_bounded &&
                     quorum.ledger_balanced;
  double p99_ratio = fault_free.p99 > 0
                         ? static_cast<double>(best.p99) /
                               static_cast<double>(fault_free.p99)
                         : 0.0;
  bool best_gate = best.ok == dark_total && p99_ratio <= 2.0 &&
                   best.counts_bounded && best.ledger_balanced;
  bool fail_gate = fail.failed == dark_total &&
                   fail.unavailable == dark_total && fail.ledger_balanced;
  bool pass = identical_all && quorum_gate && best_gate && fail_gate;

  Json quorum_json = Json::Object();
  quorum_json.Set("min_shards", 3)
      .Set("queries", dark_total)
      .Set("ok", quorum.ok)
      .Set("partial", quorum.partial)
      .Set("degraded_shards", quorum.stats.degraded_shards)
      .Set("counts_lower_bound", quorum.counts_bounded)
      .Set("ledger_balanced", quorum.ledger_balanced);

  Json best_json = LatencyJson(best);
  best_json.Set("ok", best.ok)
      .Set("partial", best.partial)
      .Set("fault_free_p99_micros", static_cast<long long>(fault_free.p99))
      .Set("p99_ratio", p99_ratio)
      .Set("within_2x", p99_ratio <= 2.0)
      .Set("ledger_balanced", best.ledger_balanced);

  Json fail_json = Json::Object();
  fail_json.Set("queries", dark_total)
      .Set("failed", fail.failed)
      .Set("unavailable", fail.unavailable)
      .Set("ledger_balanced", fail.ledger_balanced);

  Json config = Json::Object();
  config.Set("corpus_docs", 1500)
      .Set("query_terms", static_cast<long long>(terms.size()))
      .Set("zipf_skew", kZipfSkew)
      .Set("threads", static_cast<long long>(kThreads))
      .Set("queries_per_thread", static_cast<long long>(kQueriesPerThread))
      .Set("latency_base_micros", 2000)
      .Set("latency_tail", "5x at p=0.05")
      .Set("seed", static_cast<long long>(kSeed));

  Json dark = Json::Object();
  dark.Set("shards", 4)
      .Set("dark_shard", 1)
      .Set("quorum_3_of_4", std::move(quorum_json))
      .Set("best_effort", std::move(best_json))
      .Set("fail", std::move(fail_json));

  Json gates = Json::Object();
  gates.Set("identical_to_unsharded_all_n", identical_all)
      .Set("quorum_degrades_not_fails", quorum_gate)
      .Set("best_effort_p99_within_2x", best_gate)
      .Set("fail_unavailable_no_leaks", fail_gate)
      .Set("pass", pass);

  Json root = Json::Object();
  root.Set("bench", "shards")
      .Set("config", std::move(config))
      .Set("scaling", std::move(scaling))
      .Set("dark_shard", std::move(dark))
      .Set("gates", std::move(gates));

  if (!wsqbench::WriteBenchJson("BENCH_shards.json", root)) return 2;
  if (check && !pass) {
    std::fprintf(stderr, "bench_shards: gate violated (see gates)\n");
    return 1;
  }
  return 0;
}
