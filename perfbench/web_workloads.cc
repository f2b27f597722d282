// Web workloads: the paper's Table 1 templates, §3.1 queries 1 and 4,
// and DSQ explanations, run over two simulated search engines. The
// three variants differ only in the network model in front of the
// engines (see kSpecs).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "data/datasets.h"
#include "dsq/dsq_engine.h"
#include "net/simulated_service.h"
#include "probes.h"
#include "wsq/demo.h"
#include "workloads.h"

namespace wsqperf {
namespace {

enum Op { kT1, kT2, kT3, kQ1, kQ4, kDsq };

struct WebSpec {
  const char* name;
  const char* why;
  wsq::LatencyModel latency;
  size_t shards;  ///< 0 = unsharded AltaVista
  int clients;
};

/// Deck passes per round: 212 statements, so each round's p95 has ten
/// statements beyond it.
constexpr size_t kPassesPerRound = 4;

/// Seed of the simulated network's latency draws, the same in every
/// run: runs of different --seed values then differ in statement order
/// and corpus but see the same draws, so the share of statements that
/// meet a slow answer comes from the program, not from the draw (ten
/// runs of web_async: qps spread 2.7% with seed-dependent draws, 0.7%
/// with these).
constexpr uint64_t kNetworkSeed = 20000;

// web_async runs 2 clients, not 4: with 4, one engine's timer thread
// evaluates ~8K calls/s, and its queue under the host's slow stretches,
// not the plan, sets the latencies (ten runs without the tail: qps
// spread 5.6% with 4 clients, 1.6% with 2). Its 0.3% x4 tail puts about
// a fifth of the statements behind a slow answer: without it every
// statement ends at the 32.5 ms jitter ceiling plus host timer jitter,
// and p95 measured only that jitter (ten-run spread 5-19%).
const WebSpec kSpecs[] = {
    {"web_async",
     "paper workload: async iteration at 25 ms +-7.5 ms with a 0.3% x4 "
     "tail; wall time is set by latency waves, so it moves with plan "
     "shape, overlap and call counts",
     wsq::LatencyModel{25000, 7500, 0.003, 4.0}, 0, 2},
    {"web_sharded",
     "same mix with AltaVista as 4 replicated shards and a 2% x4 tail; "
     "fan-out, merge, hedging and coalescing set each call's time",
     wsq::LatencyModel{25000, 7500, 0.02, 4.0}, 4, 4},
    {"web_local",
     "same mix with instant search; the local pipeline (parse, plan, "
     "exec, ReqPump hand-off, search evaluation) is the blocking path",
     wsq::LatencyModel::Instant(), 0, 1},
};

/// Corpus size: the Table 1 bench's 12K documents (smoke: 2K).
size_t CorpusDocuments(bool smoke) { return smoke ? 2000 : 12000; }

/// The synthetic Web: one corpus and the two engines over it.
struct WebWorld {
  WebWorld(uint64_t seed, bool smoke) {
    wsq::CorpusConfig config = wsq::DefaultPaperCorpusConfig();
    config.num_documents = CorpusDocuments(smoke);
    config.seed = seed;
    corpus = std::make_unique<wsq::Corpus>(wsq::MakePaperCorpus(config));
    av_config.name = "AltaVista";
    av_config.supports_near = true;
    av_config.rank_seed = 101 ^ seed;
    av = std::make_unique<wsq::SearchEngine>(corpus.get(), av_config);
    wsq::SearchEngineConfig g_config;
    g_config.name = "Google";
    g_config.supports_near = false;
    g_config.rank_seed = 20706 ^ seed;
    google = std::make_unique<wsq::SearchEngine>(corpus.get(), g_config);
  }

  std::unique_ptr<wsq::Corpus> corpus;
  wsq::SearchEngineConfig av_config;
  std::unique_ptr<wsq::SearchEngine> av;
  std::unique_ptr<wsq::SearchEngine> google;
};

/// Network services, probes and a database over a WebWorld. Member
/// order is destruction-critical: the database's ReqPump drains its
/// calls while the probes and services they run through still exist.
struct WebSite {
  WebSite(const WebWorld& world, const wsq::LatencyModel& latency,
          size_t shards) {
    wsq::SimulatedSearchService::Options svc;
    svc.latency = latency;
    svc.seed = kNetworkSeed;
    wsq::SearchService* av = nullptr;
    if (shards > 0) {
      wsq::SimulatedShardCluster::Options cluster_options;
      cluster_options.num_shards = shards;
      cluster_options.engine = world.av_config;
      cluster_options.latency = latency;
      cluster_options.seed = kNetworkSeed;
      cluster_options.with_replicas = true;
      cluster = std::make_unique<wsq::SimulatedShardCluster>(
          world.corpus.get(), cluster_options);
      av = cluster->service();
    } else {
      av_service = std::make_unique<wsq::SimulatedSearchService>(
          world.av.get(), svc);
      av = av_service.get();
    }
    svc.seed = kNetworkSeed + 1;
    google_service = std::make_unique<wsq::SimulatedSearchService>(
        world.google.get(), svc);
    av_probe = std::make_unique<ProbeSearchService>(av, world.av.get());
    google_probe = std::make_unique<ProbeSearchService>(
        google_service.get(), world.google.get());

    db = std::make_unique<wsq::WsqDatabase>();
    wsq::Status s = db->RegisterSearchEngine("AV", av_probe.get(), true);
    if (s.ok()) {
      s = db->RegisterSearchEngine("Google", google_probe.get(), false);
    }
    if (s.ok()) s = wsq::LoadStatesTable(db.get());
    if (s.ok()) s = wsq::LoadSigsTable(db.get());
    if (s.ok()) s = wsq::LoadCsFieldsTable(db.get());
    if (s.ok()) s = wsq::LoadMoviesTable(db.get());
    if (!s.ok()) {
      std::fprintf(stderr, "web setup failed: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }

  std::unique_ptr<wsq::SimulatedSearchService> av_service;
  std::unique_ptr<wsq::SimulatedSearchService> google_service;
  std::unique_ptr<wsq::SimulatedShardCluster> cluster;
  std::unique_ptr<ProbeSearchService> av_probe;
  std::unique_ptr<ProbeSearchService> google_probe;
  std::unique_ptr<wsq::WsqDatabase> db;
};

struct WebStmt {
  Op op;
  std::string sql;  ///< empty for DSQ
};

const char* const kDsqPhrase = "scuba diving";
const std::vector<std::string> kDsqColumns = {"States.Name", "Movies.Title"};

/// Every distinct statement: T1, T2 and T3 once per template constant
/// (bench_table1's instances), then Q1, Q4 and the DSQ explanation.
std::vector<WebStmt> WebStatements() {
  std::vector<WebStmt> out;
  const std::vector<std::string>& c = wsq::TemplateConstants();
  for (size_t i = 0; i < c.size(); ++i) {
    out.push_back({kT1, wsq::StrFormat(
                            "Select Name, Count From States, WebCount "
                            "Where Name = T1 and WebCount.T2 = '%s'",
                            c[i].c_str())});
  }
  for (size_t i = 0; i < c.size(); ++i) {
    out.push_back(
        {kT2, wsq::StrFormat(
                  "Select Name, Count, URL, Rank "
                  "From States, WebCount, WebPages "
                  "Where Name = WebCount.T1 and WebCount.T2 = '%s' and "
                  "Name = WebPages.T1 and WebPages.T2 = '%s' and "
                  "WebPages.Rank <= 2",
                  c[i].c_str(), c[(i + 8) % c.size()].c_str())});
  }
  for (size_t i = 0; i < c.size(); ++i) {
    out.push_back(
        {kT3, wsq::StrFormat(
                  "Select Name, AV.URL, G.URL "
                  "From Sigs, WebPages_AV AV, WebPages_Google G "
                  "Where Name = AV.T1 and Name = G.T1 and AV.Rank <= 3 and "
                  "G.Rank <= 3 and AV.T2 = '%s' and G.T2 = '%s'",
                  c[i].c_str(), c[i].c_str())});
  }
  out.push_back({kQ1,
                 "Select Name, Count From States, WebCount "
                 "Where Name = T1 Order By Count Desc"});
  out.push_back({kQ4,
                 "Select Capital, C.Count, Name, S.Count "
                 "From States, WebCount C, WebCount S "
                 "Where Capital = C.T1 and Name = S.T1 and "
                 "C.Count > S.Count Order By Capital"});
  out.push_back({kDsq, ""});
  return out;
}

uint64_t HashExplanation(const wsq::DsqEngine::Explanation& e) {
  Fnv fnv;
  for (const wsq::DsqEngine::TermScore& t : e.terms) {
    fnv.Mix(t.term);
    fnv.Mix(t.source);
    fnv.Mix(static_cast<uint64_t>(t.count));
  }
  fnv.Mix(e.external_calls);
  return fnv.value();
}

class WebWorkload : public Workload {
 public:
  WebWorkload(const WebSpec& spec, const RunConfig& config)
      : spec_(spec),
        config_(config),
        stmts_(WebStatements()),
        stream_(Deck(stmts_), config.seed * 1000003) {
    clients_ = std::max(1, std::min<int>(
                               spec.clients,
                               static_cast<int>(
                                   std::thread::hardware_concurrency())));
    observed_.resize(clients_);
  }

  std::string why() const override { return spec_.why; }
  int clients() const override { return clients_; }
  std::vector<std::string> op_names() const override {
    return {"T1", "T2", "T3", "Q1", "Q4", "DSQ"};
  }
  size_t round_statements() const override {
    return kPassesPerRound * stream_.size();
  }

  void Setup() override {
    site_.reset();
    world_.reset();
    world_ = std::make_unique<WebWorld>(config_.seed, config_.smoke);
    site_ = std::make_unique<WebSite>(*world_, spec_.latency, spec_.shards);
  }

  Outcome Next(int client, bool traced) override {
    int id = 0;
    {
      std::lock_guard<std::mutex> lock(stream_mu_);
      id = stream_.Next();
    }
    const WebStmt& stmt = stmts_[id];
    Outcome out;
    out.op = stmt.op;
    uint64_t hash = 0;
    if (stmt.op == kDsq) {
      wsq::DsqEngine dsq(site_->db.get(), site_->av_probe.get());
      int64_t start = NowNanos();
      auto r = dsq.Explain(kDsqPhrase, kDsqColumns);
      out.latency_ns = NowNanos() - start;
      if (!r.ok()) {
        out.ok = false;
        out.error = r.status().ToString();
        return out;
      }
      hash = HashExplanation(*r);
    } else {
      if (traced) {
        out.has_sql = true;
        out.parse_ns = TimeParse(stmt.sql);
      }
      wsq::WsqDatabase::ExecOptions options;
      options.trace = traced;
      options.trace_max_spans = size_t{1} << 20;
      int64_t start = NowNanos();
      auto r = site_->db->Execute(stmt.sql, options);
      out.latency_ns = NowNanos() - start;
      if (!r.ok()) {
        out.ok = false;
        out.error = r.status().ToString();
        return out;
      }
      out.select = true;
      out.spilled_bytes = r->stats.spilled_bytes;
      out.spill_runs = r->stats.spill_runs;
      out.peak_memory_bytes = r->stats.peak_memory_bytes;
      out.pressure_released_bytes = r->stats.pressure_released_bytes;
      out.reqsync_peak_rows = r->stats.peak_buffered_rows;
      if (traced && r->trace.has_value()) AbsorbTrace(*r->trace, &out);
      hash = MultisetHash(r->result);
    }
    observed_[client][id].insert(hash);
    return out;
  }

  Counters Snapshot() override {
    Counters c;
    c.pump = site_->db->pump()->stats();
    for (ProbeSearchService* p :
         {site_->av_probe.get(), site_->google_probe.get()}) {
      c.calls += p->calls();
      c.empty_calls += p->empty();
      c.service_ns += p->service_ns();
    }
    if (site_->cluster != nullptr) {
      c.sharded = true;
      c.shards = site_->cluster->service()->stats();
    }
    c.pool = site_->db->buffer_pool()->stats();
    return c;
  }

  void RecordSearches(bool on) override {
    site_->av_probe->set_recording(on);
    site_->google_probe->set_recording(on);
  }

  std::vector<BenchSpan> ReplaySearches() override {
    std::vector<BenchSpan> spans;
    for (ProbeSearchService* p :
         {site_->av_probe.get(), site_->google_probe.get()}) {
      for (const RecordedRequest& req : p->TakeRecorded()) {
        int64_t start = NowNanos();
        bool ok = req.kind == wsq::SearchRequest::Kind::kCount
                      ? req.engine->Count(req.query).ok()
                      : req.engine->Search(req.query, req.k).ok();
        int64_t dur = NowNanos() - start;
        if (!ok) continue;
        spans.push_back(BenchSpan{req.statement_id, "search.eval", "replay",
                                  0, static_cast<double>(dur) / 1e3});
      }
    }
    return spans;
  }

  std::vector<Check> Verify() override {
    std::vector<Check> checks;

    // Oracle: sequential iteration, instant latency, no shards, over
    // the same corpus and engines.
    std::map<int, std::set<uint64_t>> seen;
    for (const auto& per_client : observed_) {
      for (const auto& [id, hashes] : per_client) {
        seen[id].insert(hashes.begin(), hashes.end());
      }
    }
    WebSite reference(*world_, wsq::LatencyModel::Instant(), 0);
    size_t mismatched = 0;
    std::string first_bad;
    for (const auto& [id, hashes] : seen) {
      const WebStmt& stmt = stmts_[id];
      uint64_t expected = 0;
      if (stmt.op == kDsq) {
        wsq::DsqEngine dsq(reference.db.get(), reference.av_service.get());
        auto r = dsq.Explain(kDsqPhrase, kDsqColumns);
        if (r.ok()) expected = HashExplanation(*r);
      } else {
        wsq::WsqDatabase::ExecOptions options;
        options.async_iteration = false;
        auto r = reference.db->Execute(stmt.sql, options);
        if (r.ok()) expected = MultisetHash(r->result);
      }
      if (hashes.size() != 1 || *hashes.begin() != expected) {
        ++mismatched;
        if (first_bad.empty()) first_bad = stmt.sql.empty() ? "DSQ" : stmt.sql;
      }
    }
    checks.push_back({"results_match_sequential_reference", mismatched == 0,
                      wsq::StrFormat("%zu distinct statements, %zu differ%s%s",
                                     seen.size(), mismatched,
                                     first_bad.empty() ? "" : ": ",
                                     first_bad.c_str())});

    wsq::ReqPump* pump = site_->db->pump();
    pump->Drain();
    wsq::ReqPumpStats s = pump->stats();
    checks.push_back(
        {"pump_ledger_balanced",
         s.registered == s.completed + s.cancelled + s.shed &&
             pump->pending_results() == 0,
         wsq::StrFormat("registered=%llu completed=%llu cancelled=%llu "
                        "shed=%llu pending=%zu",
                        (unsigned long long)s.registered,
                        (unsigned long long)s.completed,
                        (unsigned long long)s.cancelled,
                        (unsigned long long)s.shed,
                        pump->pending_results())});
    if (site_->cluster != nullptr) {
      site_->cluster->Quiesce();
      wsq::ReqPumpStats legs = site_->cluster->pump()->stats();
      checks.push_back(
          {"shard_pump_ledger_balanced",
           legs.registered == legs.completed + legs.cancelled + legs.shed,
           wsq::StrFormat("registered=%llu completed=%llu cancelled=%llu",
                          (unsigned long long)legs.registered,
                          (unsigned long long)legs.completed,
                          (unsigned long long)legs.cancelled)});
    }
    return checks;
  }

 private:
  /// One deck pass: every SQL statement once and a DSQ explanation per
  /// ~16 statements (3 of 53).
  static std::vector<int> Deck(const std::vector<WebStmt>& stmts) {
    std::vector<int> deck;
    for (size_t i = 0; i < stmts.size(); ++i) {
      int copies = stmts[i].op == kDsq ? 3 : 1;
      for (int k = 0; k < copies; ++k) deck.push_back(static_cast<int>(i));
    }
    return deck;
  }

  const WebSpec spec_;
  const RunConfig config_;
  const std::vector<WebStmt> stmts_;
  int clients_ = 1;
  std::mutex stream_mu_;
  DeckStream stream_;  // guarded by stream_mu_
  /// Per client; touched only by that client's thread during a phase.
  std::vector<std::map<int, std::set<uint64_t>>> observed_;
  std::unique_ptr<WebWorld> world_;
  std::unique_ptr<WebSite> site_;
};

}  // namespace

std::unique_ptr<Workload> MakeWebWorkload(const std::string& name,
                                          const RunConfig& config) {
  for (const WebSpec& spec : kSpecs) {
    if (name == spec.name) {
      return std::make_unique<WebWorkload>(spec, config);
    }
  }
  return nullptr;
}

}  // namespace wsqperf
