// End-to-end benchmark runner for WSQ/DSQ.
//
//   wsq_bench --workload <name> --seed <n> --seconds <s> [--trace]
//             [--trace-out <file>] [--scratch <dir>] [--smoke]
//
// One workload per process. The run: set the environment up, warm up
// for one round, then `clients` threads in a closed loop replay the
// workload's seeded statement stream in rounds of whole deck passes
// until --seconds of rounds have run. 6 to 24 times per run, spread
// between the rounds and made up after them, a fresh process
// (--setup-probe) times one more set-up. With
// --trace one extra traced round follows for the per-layer ledger.
// Every run ends with the workload's correctness checks. Prints one
// JSON document on stdout; exits 1 if any check failed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "parser/parser.h"
#include "probes.h"
#include "storage/page.h"
#include "workloads.h"

#ifndef WSQ_BENCH_BUILD_TYPE
#define WSQ_BENCH_BUILD_TYPE "unknown"
#endif

namespace wsqperf {

void AbsorbTrace(const wsq::QueryTrace& trace, Outcome* out) {
  for (const wsq::TraceSpan& span : trace.spans) {
    if (span.instant) continue;
    int64_t* sum = nullptr;
    const char* name = nullptr;
    if (span.category == "query" && span.name == "bind") {
      sum = &out->bind_us;
      name = "plan.bind";
    } else if (span.category == "query" && span.name == "rewrite") {
      sum = &out->rewrite_us;
      name = "plan.rewrite";
    } else if (span.category == "query" && span.name == "execute") {
      sum = &out->execute_us;
      name = "exec.execute";
    } else if (span.category == "reqsync" && span.name == "wait") {
      sum = &out->reqsync_wait_us;
      name = "exec.reqsync_wait";
    } else if (span.category == "net" && span.name == "fetch") {
      sum = &out->fetch_us;
      name = "exec.net_fetch";
    }
    if (sum == nullptr) continue;
    *sum += span.duration_micros;
    out->spans.push_back(BenchSpan{-1, name, "query",
                                   static_cast<double>(span.start_micros),
                                   static_cast<double>(span.duration_micros)});
  }
}

int64_t TimeParse(const std::string& sql) {
  int64_t start = NowNanos();
  auto parsed = wsq::Parser::Parse(sql);
  int64_t elapsed = NowNanos() - start;
  return parsed.ok() ? elapsed : 0;
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string scratch = ".";
  std::string git_sha = "unknown";
  bool smoke = false;
  bool setup_probe = false;  ///< time one Setup(), print seconds, exit
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      args->seconds = std::atof(v.c_str());
      if (args->seconds <= 0) return false;
    } else if (a == "--trace") {
      args->trace = true;
    } else if (a == "--trace-out") {
      if (!value(&args->trace_out)) return false;
      args->trace = true;
    } else if (a == "--scratch") {
      if (!value(&args->scratch)) return false;
    } else if (a == "--git-sha") {
      if (!value(&args->git_sha)) return false;
    } else if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--setup-probe") {
      args->setup_probe = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// Set-up probes per run: as many as fit in kProbeBudgetS of set-up
/// time, within [kMinProbes, kMaxProbes], spread evenly over the
/// measured time. Cheap set-ups get many samples, whose median is
/// steady; the web set-ups (0.5-1 s each) get a few.
constexpr double kProbeBudgetS = 2.5;
constexpr int64_t kMinProbes = 6;
constexpr int64_t kMaxProbes = 24;

/// Per-layer metrics that are one statement kind's median latency.
const std::pair<const char*, const char*> kOpMetrics[] = {
    {"insert", "wsq.insert_ms"},
    {"update", "wsq.update_ms"},
    {"delete", "wsq.delete_ms"},
    {"select", "wsq.lookup_ms"},
    {"checkpoint", "storage.checkpoint_ms"},
};

/// Sum over rounds of the counter deltas the per-layer metrics use.
struct Deltas {
  double calls = 0, empty = 0, service_ns = 0;
  double resolved = 0, queue_us = 0, flight_us = 0, max_in_flight = 0;
  bool sharded = false;
  double fanouts = 0, coalesced = 0, legs = 0, hedges = 0, hedge_wins = 0;
  double hits = 0, misses = 0, evictions = 0, flushes = 0;
  double disk_reads = 0, disk_writes = 0, syncs = 0, wal_bytes = 0, user_bytes = 0;
  double checkpoints = 0;

  void Add(const Counters& a, const Counters& b) {
    auto d = [](auto x, auto y) { return static_cast<double>(y - x); };
    calls += d(a.calls, b.calls);
    empty += d(a.empty_calls, b.empty_calls);
    service_ns += d(a.service_ns, b.service_ns);
    resolved += d(a.pump.completed, b.pump.completed);
    queue_us +=
        d(a.pump.queue_wait_micros_total, b.pump.queue_wait_micros_total);
    flight_us += d(a.pump.in_flight_micros_total, b.pump.in_flight_micros_total);
    max_in_flight =
        std::max(max_in_flight, static_cast<double>(b.pump.max_in_flight));
    sharded = sharded || b.sharded;
    fanouts += d(a.shards.fanouts, b.shards.fanouts);
    coalesced += d(a.shards.coalesced, b.shards.coalesced);
    legs += d(a.shards.shard_calls, b.shards.shard_calls);
    hedges += d(a.shards.hedges, b.shards.hedges);
    hedge_wins += d(a.shards.hedge_wins, b.shards.hedge_wins);
    hits += d(a.pool.hits, b.pool.hits);
    misses += d(a.pool.misses, b.pool.misses);
    evictions += d(a.pool.evictions, b.pool.evictions);
    flushes += d(a.pool.flushes, b.pool.flushes);
    disk_reads += d(a.disk_reads, b.disk_reads);
    disk_writes += d(a.disk_writes, b.disk_writes);
    syncs += d(a.disk_syncs, b.disk_syncs) + d(a.wal_syncs, b.wal_syncs);
    wal_bytes += d(a.wal_bytes, b.wal_bytes);
    user_bytes += d(a.user_row_bytes, b.user_row_bytes);
    checkpoints += d(a.checkpoints, b.checkpoints);
  }
};

/// Statements one phase ran, per client, with their start offsets.
struct Phase {
  std::vector<std::vector<Outcome>> outcomes;
  std::vector<std::vector<int64_t>> ids;
  std::vector<std::vector<int64_t>> start_ns;
  int64_t wall_ns = 0;

  size_t statements() const {
    size_t n = 0;
    for (const auto& c : outcomes) n += c.size();
    return n;
  }
};

/// Runs `statements` statements of the workload's stream, each client
/// in a closed loop taking the next one until none are left.
Phase RunPhase(Workload& w, size_t statements, bool traced,
               std::atomic<int64_t>* next_id) {
  const int clients = w.clients();
  Phase p;
  p.outcomes.resize(clients);
  p.ids.resize(clients);
  p.start_ns.resize(clients);
  std::atomic<size_t> claimed{0};
  const int64_t begin = NowNanos();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (claimed.fetch_add(1) < statements) {
        int64_t id = next_id->fetch_add(1);
        int64_t start = NowNanos();
        t_statement_id = id;
        Outcome o = w.Next(c, traced);
        t_statement_id = -1;
        p.ids[c].push_back(id);
        p.start_ns[c].push_back(start - begin);
        p.outcomes[c].push_back(std::move(o));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  p.wall_ns = NowNanos() - begin;
  return p;
}

std::string ShellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

/// Times one Setup() in a fresh process (this binary with
/// --setup-probe) and waits for it to exit. A fresh process makes every
/// sample start from the same state, and the probe's environment never
/// counts toward this process's peak RSS. Returns seconds, or a negative
/// value if the probe failed.
double ProbeSetup(const Args& args) {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return -1;
  const std::string dir = args.scratch + "/setup_probe";
  const std::string cmd =
      ShellQuote(self.string()) + " --setup-probe --workload " +
      ShellQuote(args.workload) + " --seed " + std::to_string(args.seed) +
      " --scratch " + ShellQuote(dir);
  std::fflush(stdout);
  FILE* probe = popen(cmd.c_str(), "r");
  if (probe == nullptr) return -1;
  double seconds = -1;
  if (std::fscanf(probe, "%lf", &seconds) != 1) seconds = -1;
  const int status = pclose(probe);
  std::filesystem::remove_all(dir, ec);
  return status == 0 ? seconds : -1;
}

Json Metric(double value, const char* unit) {
  Json m = Json::Object();
  m.Set("value", value).Set("unit", unit);
  return m;
}

std::vector<double> SortedMs(const std::vector<const Outcome*>& outs) {
  std::vector<double> ms;
  ms.reserve(outs.size());
  for (const Outcome* o : outs) {
    ms.push_back(static_cast<double>(o->latency_ns) / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

}  // namespace
}  // namespace wsqperf

int main(int argc, char** argv) {
  using namespace wsqperf;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wsq_bench --workload <name> --seed <n> "
                 "--seconds <s> [--trace] [--trace-out <file>] "
                 "[--scratch <dir>] [--smoke]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  RunConfig config{args.seed, args.scratch, args.smoke};
  std::unique_ptr<Workload> w = MakeWebWorkload(args.workload, config);
  if (w == nullptr) w = MakeStoredWorkload(args.workload, config);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const std::vector<std::string> op_names = w->op_names();

  int64_t setup_start = NowNanos();
  w->Setup();
  // setup_s samples this set-up and probes spread over the whole run,
  // so a burst of load from other tenants of the host skews only some.
  std::vector<double> setup_s = {
      static_cast<double>(NowNanos() - setup_start) / 1e9};
  if (args.setup_probe) {
    std::printf("%.9f\n", setup_s[0]);
    std::fflush(stdout);
    std::_Exit(0);  // the environment dies with the process
  }

  // Warm-up (untimed): one round, so lazy allocations and caches settle
  // before round 1.
  std::atomic<int64_t> next_id{0};
  const size_t round_statements = w->round_statements();
  Phase warm = RunPhase(*w, round_statements, false, &next_id);

  // Rounds until --seconds of measured time (probes excluded).
  std::vector<Phase> measured;
  Deltas deltas;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t probes = std::clamp(
      static_cast<int64_t>(kProbeBudgetS / std::max(setup_s[0], 1e-3)),
      kMinProbes, kMaxProbes);
  auto probe = [&] {
    const double seconds = ProbeSetup(args);
    if (seconds < 0) {
      std::fprintf(stderr, "set-up probe failed\n");
    } else {
      setup_s.push_back(seconds);
    }
    return seconds >= 0;
  };
  int64_t measured_ns = 0;
  int64_t since_probe_ns = 0;
  while (measured.empty() || (!args.smoke && measured_ns < budget_ns)) {
    w->BeginRound();
    const Counters before = w->Snapshot();
    measured.push_back(RunPhase(*w, round_statements, false, &next_id));
    w->EndRound();
    deltas.Add(before, w->Snapshot());
    measured_ns += measured.back().wall_ns;
    since_probe_ns += measured.back().wall_ns;
    if (args.smoke || since_probe_ns < budget_ns / probes) continue;
    since_probe_ns = 0;
    if (!probe()) return 2;
  }
  // Rounds end on time, often before the last probes are due.
  while (!args.smoke && static_cast<int64_t>(setup_s.size()) <= probes) {
    if (!probe()) return 2;
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  Phase traced;
  std::vector<BenchSpan> eval_spans;
  if (args.trace) {
    w->BeginRound();
    w->RecordSearches(true);
    traced = RunPhase(*w, round_statements, true, &next_id);
    w->RecordSearches(false);
    w->EndRound();
    eval_spans = w->ReplaySearches();
  }

  std::vector<Check> checks = w->Verify();

  uint64_t attempted = 0, failed = 0;
  std::vector<const Phase*> phases = {&warm, &traced};
  for (const Phase& p : measured) phases.push_back(&p);
  for (const Phase* p : phases) {
    attempted += p->statements();
    for (const auto& c : p->outcomes) {
      for (const Outcome& o : c) {
        if (o.ok) continue;
        if (failed < 5) {
          std::fprintf(stderr, "statement failed: %s\n", o.error.c_str());
        }
        ++failed;
      }
    }
  }
  checks.push_back({"no_failed_statements", failed == 0,
                    std::to_string(failed) + " failed"});

  // ---- End-to-end metrics over every statement of every measured
  // round; each round's own values are diagnostics.
  std::vector<const Outcome*> all;
  std::vector<std::vector<const Outcome*>> by_op(op_names.size());
  Json rounds_json = Json::Array();
  std::vector<double> round_walls;
  double measured_s = 0;
  for (const Phase& p : measured) {
    std::vector<const Outcome*> outs;
    for (const auto& c : p.outcomes) {
      for (const Outcome& o : c) {
        outs.push_back(&o);
        all.push_back(&o);
        by_op[o.op].push_back(&o);
      }
    }
    const std::vector<double> ms = SortedMs(outs);
    const double wall_s = static_cast<double>(p.wall_ns) / 1e9;
    round_walls.push_back(static_cast<double>(p.wall_ns));
    measured_s += wall_s;
    Json j = Json::Object();
    j.Set("statements", static_cast<uint64_t>(outs.size()))
        .Set("wall_s", wall_s)
        .Set("qps", static_cast<double>(outs.size()) / wall_s)
        .Set("p50_ms", Percentile(ms, 0.50))
        .Set("p95_ms", Percentile(ms, 0.95));
    rounds_json.Push(j);
  }
  const std::vector<double> ms = SortedMs(all);

  Json metrics = Json::Object();
  metrics
      .Set("qps", Metric(static_cast<double>(all.size()) / measured_s,
                         "stmt/s"))
      .Set("p50_ms", Metric(Percentile(ms, 0.50), "ms"))
      .Set("p95_ms", Metric(Percentile(ms, 0.95), "ms"))
      .Set("p99_ms", Metric(Percentile(ms, 0.99), "ms"))
      .Set("peak_rss_mb", Metric(peak_rss_mb, "MB"))
      .Set("setup_s", Metric(Median(setup_s), "s"));

  // ---- Per-layer counts over all measured rounds.
  const double n = static_cast<double>(measured.size() * round_statements);
  const Deltas& d = deltas;
  double spilled = 0, spill_runs = 0, released = 0, peak_query = 0;
  double reqsync_rows = 0, selects = 0;
  for (const Phase& p : measured) {
    for (const auto& c : p.outcomes) {
      for (const Outcome& o : c) {
        spilled += static_cast<double>(o.spilled_bytes);
        spill_runs += static_cast<double>(o.spill_runs);
        released += static_cast<double>(o.pressure_released_bytes);
        peak_query =
            std::max(peak_query, static_cast<double>(o.peak_memory_bytes));
        if (o.select) {
          reqsync_rows += static_cast<double>(o.reqsync_peak_rows);
          ++selects;
        }
      }
    }
  }
  const double mb = 1024.0 * 1024.0;
  metrics
      .Set("net.ext_calls_per_stmt", Metric(d.calls / n, "calls/stmt"))
      .Set("net.empty_call_ratio", Metric(Ratio(d.empty, d.calls), "ratio"))
      .Set("net.service_ms_per_call",
           Metric(Ratio(d.service_ns / 1e6, d.calls), "ms"))
      .Set("net.shard_legs_per_call",
           Metric(d.sharded ? Ratio(d.legs, d.fanouts + d.coalesced)
                            : (d.calls > 0 ? 1.0 : 0.0),
                  "legs/call"))
      .Set("net.coalesce_hit_rate",
           Metric(Ratio(d.coalesced, d.fanouts + d.coalesced), "ratio"))
      .Set("net.hedge_fire_rate",
           Metric(Ratio(d.hedges, d.legs - d.hedges), "ratio"))
      .Set("net.hedge_win_rate", Metric(Ratio(d.hedge_wins, d.hedges), "ratio"))
      .Set("async.queue_wait_us_per_call",
           Metric(Ratio(d.queue_us, d.resolved), "us"))
      .Set("async.in_flight_us_per_call",
           Metric(Ratio(d.flight_us, d.resolved), "us"))
      .Set("async.dispatch_overhead_us_per_call",
           Metric(Ratio(d.flight_us - d.service_ns / 1e3, d.resolved), "us"))
      .Set("async.queue_wait_ratio",
           Metric(Ratio(d.queue_us, d.queue_us + d.flight_us), "ratio"))
      .Set("async.dispatch_overhead_ratio",
           Metric(Ratio(d.flight_us - d.service_ns / 1e3, d.flight_us),
                  "ratio"))
      .Set("async.max_in_flight", Metric(d.max_in_flight, "calls"))
      .Set("exec.reqsync_peak_rows",
           Metric(Ratio(reqsync_rows, selects), "rows"))
      .Set("storage.bp_hit_rate",
           Metric(Ratio(d.hits, d.hits + d.misses), "ratio"))
      .Set("storage.bp_misses_per_stmt", Metric(d.misses / n, "pages/stmt"))
      .Set("storage.bp_evictions_per_stmt",
           Metric(d.evictions / n, "pages/stmt"))
      .Set("storage.page_reads_per_stmt",
           Metric(d.disk_reads / n, "pages/stmt"))
      .Set("storage.page_writes_per_stmt", Metric(d.flushes / n, "pages/stmt"))
      .Set("storage.wal_bytes_per_stmt", Metric(d.wal_bytes / n, "B/stmt"))
      .Set("storage.spill_bytes_per_stmt", Metric(spilled / n, "B/stmt"))
      .Set("storage.spill_runs_per_stmt", Metric(spill_runs / n, "runs/stmt"))
      .Set("storage.write_amp",
           Metric(Ratio(d.disk_writes * static_cast<double>(wsq::kPageSize) +
                            d.wal_bytes,
                        d.user_bytes),
                  "ratio"))
      .Set("storage.syncs_per_checkpoint",
           Metric(Ratio(d.syncs, d.checkpoints), "syncs"))
      .Set("memory.peak_query_mb", Metric(peak_query / mb, "MB"))
      .Set("memory.pressure_released_mb_per_stmt",
           Metric(released / mb / n, "MB/stmt"));

  // ---- Per-layer time ledger from the traced round.
  Json spans = Json::Array();
  if (args.trace) {
    double wall_us = 0, parse_us = 0, parsed = 0, bind_us = 0;
    double rewrite_us = 0, exec_self_us = 0, planned = 0, reqsync_us = 0;
    double write_us = 0, checkpoint_us = 0, other_us = 0;
    double unattributed_us = 0;
    for (size_t c = 0; c < traced.outcomes.size(); ++c) {
      for (size_t i = 0; i < traced.outcomes[c].size(); ++i) {
        const Outcome& o = traced.outcomes[c][i];
        const int64_t id = traced.ids[c][i];
        const double lat_us = static_cast<double>(o.latency_ns) / 1e3;
        const double p_us = static_cast<double>(o.parse_ns) / 1e3;
        wall_us += lat_us;
        if (o.has_sql) {
          parse_us += p_us;
          ++parsed;
        }
        if (o.select) {
          bind_us += static_cast<double>(o.bind_us);
          rewrite_us += static_cast<double>(o.rewrite_us);
          exec_self_us += static_cast<double>(o.execute_us - o.reqsync_wait_us -
                                              o.fetch_us);
          reqsync_us += static_cast<double>(o.reqsync_wait_us);
          unattributed_us +=
              lat_us - p_us -
              static_cast<double>(o.bind_us + o.rewrite_us + o.execute_us);
          ++planned;
        } else if (o.checkpoint) {
          checkpoint_us += lat_us;
        } else if (o.has_sql) {
          write_us += lat_us - p_us;
        } else {
          other_us += lat_us;
        }
        if (args.trace_out.empty()) continue;
        const double start_us =
            static_cast<double>(traced.start_ns[c][i]) / 1e3;
        std::vector<BenchSpan> own = {
            {id, "wsq.statement:" + op_names[o.op], "round", start_us, lat_us}};
        if (o.has_sql) own.push_back({id, "parser.parse", "round", start_us, p_us});
        if (o.checkpoint) {
          own.push_back({id, "storage.checkpoint", "round", start_us, lat_us});
        }
        own.insert(own.end(), o.spans.begin(), o.spans.end());
        for (BenchSpan& s : own) {
          s.statement_id = id;
          Json j = Json::Object();
          j.Set("stmt", s.statement_id)
              .Set("client", static_cast<int>(c))
              .Set("name", s.name)
              .Set("clock", s.clock)
              .Set("start_us", s.start_us)
              .Set("dur_us", s.dur_us);
          spans.Push(j);
        }
      }
    }
    double eval_us = 0;
    for (const BenchSpan& s : eval_spans) {
      eval_us += s.dur_us;
      if (args.trace_out.empty()) continue;
      Json j = Json::Object();
      j.Set("stmt", s.statement_id)
          .Set("name", s.name)
          .Set("clock", s.clock)
          .Set("start_us", s.start_us)
          .Set("dur_us", s.dur_us);
      spans.Push(j);
    }
    metrics.Set("parser.parse_us", Metric(Ratio(parse_us, parsed), "us"))
        .Set("plan.bind_us", Metric(Ratio(bind_us, planned), "us"))
        .Set("plan.rewrite_us", Metric(Ratio(rewrite_us, planned), "us"))
        .Set("exec.self_us", Metric(Ratio(exec_self_us, planned), "us"))
        .Set("parser.share", Metric(Ratio(parse_us, wall_us), "ratio"))
        .Set("plan.share", Metric(Ratio(bind_us + rewrite_us, wall_us), "ratio"))
        .Set("exec.self_share", Metric(Ratio(exec_self_us, wall_us), "ratio"))
        .Set("exec.reqsync_blocked_share",
             Metric(Ratio(reqsync_us, wall_us), "ratio"))
        .Set("wsq.write_share", Metric(Ratio(write_us, wall_us), "ratio"))
        .Set("storage.checkpoint_share",
             Metric(Ratio(checkpoint_us, wall_us), "ratio"))
        .Set("dsq.explain_share", Metric(Ratio(other_us, wall_us), "ratio"))
        .Set("wsq.unattributed_share",
             Metric(Ratio(unattributed_us, wall_us), "ratio"))
        .Set("search.eval_us_per_call",
             Metric(Ratio(eval_us, static_cast<double>(eval_spans.size())),
                    "us"))
        .Set("search.eval_share", Metric(Ratio(eval_us, wall_us), "ratio"))
        .Set("obs.trace_overhead_pct",
             Metric((Ratio(static_cast<double>(traced.wall_ns),
                           Median(round_walls)) -
                     1.0) *
                        100.0,
                    "%"));
  }

  Json ops = Json::Object();
  std::map<std::string, double> op_p50;
  for (size_t op = 0; op < op_names.size(); ++op) {
    std::vector<double> op_ms = SortedMs(by_op[op]);
    Json o = Json::Object();
    o.Set("statements", static_cast<uint64_t>(op_ms.size()))
        .Set("p50_ms", Percentile(op_ms, 0.50))
        .Set("p95_ms", Percentile(op_ms, 0.95));
    ops.Set(op_names[op], o);
    op_p50[op_names[op]] = Percentile(op_ms, 0.50);
  }
  // Median latency per stored_write statement kind (0 elsewhere).
  for (const auto& [op, metric] : kOpMetrics) {
    metrics.Set(metric, Metric(op_p50.count(op) ? op_p50[op] : 0.0, "ms"));
  }

  bool correct = true;
  Json checks_json = Json::Array();
  for (const Check& c : checks) {
    correct = correct && c.ok;
    Json j = Json::Object();
    j.Set("name", c.name).Set("ok", c.ok).Set("detail", c.detail);
    checks_json.Push(j);
    if (!c.ok) {
      std::fprintf(stderr, "check failed: %s (%s)\n", c.name.c_str(),
                   c.detail.c_str());
    }
  }
  Json setups = Json::Array();
  for (double s : setup_s) setups.Push(s);

  Json doc = Json::Object();
  doc.Set("workload", args.workload)
      .Set("why", w->why())
      .Set("seed", args.seed)
      .Set("seconds", args.seconds)
      .Set("traced", args.trace)
      .Set("loop", "closed")
      .Set("clients", w->clients())
      .Set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .Set("build_type", WSQ_BENCH_BUILD_TYPE)
      .Set("git_sha", args.git_sha)
      .Set("correct", correct)
      .Set("attempted", attempted)
      .Set("failed", failed)
      .Set("setup_runs_s", setups)
      .Set("rounds", rounds_json)
      .Set("ops", ops)
      .Set("metrics", metrics)
      .Set("checks", checks_json);
  std::printf("%s\n", doc.str().c_str());
  std::fflush(stdout);

  if (!args.trace_out.empty()) {
    std::ofstream f(args.trace_out);
    f << spans.str() << "\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  return correct ? 0 : 1;
}
