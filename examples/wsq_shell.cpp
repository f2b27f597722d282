// An interactive WSQ shell — the reproduction of the paper's "simple
// interface that allows users to pose limited queries over our WSQ
// implementation" (§5, http://www-db.stanford.edu/wsq back in 2000).
//
// Reads SQL from stdin (interactive or piped), executes against the
// demo environment, and prints result tables with per-query stats.
//
//   \help              command list
//   \tables            stored and virtual tables
//   \sync | \async     switch execution strategy (default async)
//   \plan <select>     show the plan without executing
//   \analyze <select>  EXPLAIN ANALYZE: run + profiled plan tree
//   \trace <select>    run + per-query trace spans
//   \statusz [json]    live state: the metrics export
//   \latency <ms>      report the configured latency
//   \shards            sharded-backend status / partial-result policy
//   \quit
//
// Example session:
//   wsq> SELECT Name, Count FROM States, WebCount WHERE Name = T1
//        ORDER BY Count DESC LIMIT 5;

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/cancellation.h"
#include "common/strings.h"
#include "dsq/dsq_engine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "wsq/demo.h"

namespace {

constexpr int kLatencyMs = 25;

// Token of the query currently executing, for the SIGINT handler.
// CancellationToken::Cancel is a plain atomic store, so calling it
// from a signal handler is safe.
std::atomic<wsq::CancellationToken*> g_active_token{nullptr};

void HandleSigint(int) {
  wsq::CancellationToken* token = g_active_token.load();
  if (token != nullptr) {
    token->Cancel();  // the shell prints "query cancelled" and goes on
  } else {
    _exit(130);  // idle at the prompt: behave like an uncaught Ctrl-C
  }
}

void PrintHelp() {
  std::printf(
      "Commands:\n"
      "  \\help                this text\n"
      "  \\tables              list stored and virtual tables\n"
      "  \\sync / \\async       choose execution strategy\n"
      "  \\plan <select...>    EXPLAIN the (async) plan\n"
      "  \\analyze <select...> run the query, print the profiled plan\n"
      "                       (rows, calls, self time, blocked time)\n"
      "  \\trace <select...>   run the query, print its trace spans\n"
      "  \\dsq <phrase>        DSQ: explain a phrase with DB terms\n"
      "  \\latency             show simulated search latency\n"
      "  \\shards              sharded AltaVista backend status\n"
      "  \\shards fail         fail queries unless every shard answers\n"
      "  \\shards quorum <k>   accept k-of-N shards (partial counts)\n"
      "  \\shards best-effort  accept whatever shards answer\n"
      "  \\deadline <ms>       per-query deadline (0 = none)\n"
      "  \\memory              memory governor status (budgets, spill)\n"
      "  \\budget <mb>         per-query memory budget (0 = none)\n"
      "  \\statusz             live state: the metrics export (Prometheus\n"
      "                       text)\n"
      "  \\statusz json        the same, as JSON\n"
      "  \\postmortem last     postmortem of the most recent failed or\n"
      "                       degraded statement (verdict, cause, stats,\n"
      "                       flight-recorder events)\n"
      "  \\cancel              cancel the next statement (Ctrl-C\n"
      "                       cancels the one currently running)\n"
      "  \\quit                exit\n"
      "Anything else is executed as SQL (';' optional; statements may\n"
      "span lines until a ';').\n");
}

void PrintTables(wsq::DemoEnv& env) {
  std::printf("stored tables:\n");
  for (const std::string& name : env.db().catalog()->ListTables()) {
    auto table = env.db().catalog()->GetTable(name);
    std::printf("  %-12s %s\n", name.c_str(),
                (*table)->schema().ToString().c_str());
  }
  std::printf("virtual tables:\n");
  for (const std::string& name : env.db().vtables()->List()) {
    std::printf("  %s\n", name.c_str());
  }
}

void PrintShards(wsq::DemoEnv& env, const wsq::ShardOptions& shard) {
  wsq::SimulatedShardCluster* cluster = env.shard_cluster();
  if (cluster == nullptr) {
    std::printf("sharding disabled (set WSQ_SHELL_SHARDS=N)\n");
    return;
  }
  wsq::ShardedSearchService* svc = cluster->service();
  std::printf("AltaVista backend: %zu shards, policy %s",
              cluster->num_shards(),
              wsq::ShardPolicyToString(shard.policy));
  if (shard.policy == wsq::ShardPolicy::kQuorum) {
    std::printf(" (min %d)", shard.min_shards);
  }
  std::printf("\n");
  std::vector<bool> health = svc->shard_health();
  for (size_t i = 0; i < health.size(); ++i) {
    std::optional<wsq::CircuitBreaker> breaker =
        cluster->pump()->breaker(cluster->node(i)->name());
    std::printf("  shard %zu: %s, breaker %s\n", i,
                health[i] ? "healthy" : "failing",
                std::string(wsq::CircuitStateToString(
                                breaker ? breaker->state()
                                        : wsq::CircuitState::kClosed))
                    .c_str());
  }
  // Identical legs join on the cluster's pump: `coalesced` counts the
  // requests whose every leg joined, `leg_joins` the joined legs.
  wsq::ShardedServiceStats stats = svc->stats();
  std::printf(
      "  fanouts=%llu coalesced=%llu leg_joins=%llu shard_calls=%llu "
      "hedges=%llu hedge_wins=%llu\n  complete=%llu partial=%llu "
      "quorum_failures=%llu degraded_shards=%llu\n",
      (unsigned long long)stats.fanouts,
      (unsigned long long)stats.coalesced,
      (unsigned long long)cluster->pump()->stats().joined,
      (unsigned long long)stats.shard_calls,
      (unsigned long long)stats.hedges,
      (unsigned long long)stats.hedge_wins,
      (unsigned long long)stats.complete_results,
      (unsigned long long)stats.partial_results,
      (unsigned long long)stats.quorum_failures,
      (unsigned long long)stats.degraded_shards);
}

void PrintBudget(const char* label, wsq::MemoryBudget* budget) {
  if (budget->limit() == 0) {
    std::printf("  %-8s used=%zu peak=%zu (unlimited)\n", label,
                budget->used(), budget->peak_used());
  } else {
    std::printf("  %-8s used=%zu peak=%zu limit=%zu\n", label,
                budget->used(), budget->peak_used(), budget->limit());
  }
  wsq::MemoryBudgetStats s = budget->stats();
  if (s.reserve_failures > 0 || s.forced_overages > 0 ||
      s.pressure_invocations > 0) {
    std::printf(
        "           reserve_failures=%llu pressure_runs=%llu "
        "pressure_released=%llu forced_overages=%llu\n",
        (unsigned long long)s.reserve_failures,
        (unsigned long long)s.pressure_invocations,
        (unsigned long long)s.pressure_released_bytes,
        (unsigned long long)s.forced_overages);
  }
}

void PrintMemory(wsq::DemoEnv& env, size_t query_budget_mb) {
  std::printf("memory budgets (bytes):\n");
  PrintBudget("process", wsq::MemoryBudget::Process());
  PrintBudget("db", env.db().memory_budget());
  if (query_budget_mb > 0) {
    std::printf("  per-query budget: %zu MB\n", query_budget_mb);
  } else {
    std::printf("  per-query budget: none\n");
  }
  if (wsq::SpillManager* spill = env.db().spill()) {
    wsq::SpillStats s = spill->stats();
    std::printf(
        "spill: files=%llu (active %zu) runs=%llu written=%llu read=%llu\n",
        (unsigned long long)s.files_created, spill->active_files(),
        (unsigned long long)s.runs_written,
        (unsigned long long)s.bytes_written,
        (unsigned long long)s.bytes_read);
  } else {
    std::printf("spill: disabled\n");
  }
  if (wsq::ResultCache* cache = env.client_cache()) {
    std::printf("result cache: %zu entries, %zu bytes\n", cache->size(),
                cache->bytes());
  }
}

// The live view: every component's series from the metrics export.
void PrintLiveState(bool json) {
  wsq::MetricsRegistry* registry = wsq::MetricsRegistry::Global();
  if (json) {
    std::printf("%s\n", registry->ExportJson().c_str());
  } else {
    std::printf("%s", registry->ExportPrometheusText().c_str());
  }
}

}  // namespace

int main() {
  wsq::DemoOptions options;
  options.corpus.num_documents = 8000;
  options.latency = wsq::LatencyModel{kLatencyMs * 1000,
                                      kLatencyMs * 300, 0.0, 1.0};
  // The AltaVista backend runs sharded by default (WSQ_SHELL_SHARDS=0
  // restores the paper's single-server setup). Results are identical
  // either way; \shards and ExecOptions-level policies become live.
  options.search_shards = 4;
  if (const char* shards_env = std::getenv("WSQ_SHELL_SHARDS")) {
    long n = std::atol(shards_env);
    options.search_shards = n < 0 ? 0 : static_cast<size_t>(n);
  }
  // Database-wide memory budget in MB (0 = unlimited, the default).
  if (const char* mem_env = std::getenv("WSQ_SHELL_MEMORY_MB")) {
    long mb = std::atol(mem_env);
    if (mb > 0) {
      options.memory_budget_bytes = static_cast<size_t>(mb) << 20;
    }
  }
  wsq::DemoEnv env(options);

  wsq::ShardOptions shard;
  bool async = true;
  size_t query_budget_mb = 0;
  int64_t deadline_ms = 0;
  bool cancel_next = false;
  wsq::CancellationToken token;
  std::signal(SIGINT, HandleSigint);
  bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("WSQ/DSQ shell — simulated Web (%zu pages, %d ms "
                "search latency).\nType \\help for commands.\n",
                env.corpus().size(), kLatencyMs);
  }

  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) {
      std::printf(buffer.empty() ? "wsq> " : "...> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(wsq::Trim(line));
    if (trimmed.empty()) continue;

    // Meta commands act immediately.
    if (trimmed[0] == '\\') {
      if (trimmed == "\\quit" || trimmed == "\\q") break;
      if (trimmed == "\\help") {
        PrintHelp();
      } else if (trimmed == "\\tables") {
        PrintTables(env);
      } else if (trimmed == "\\sync") {
        async = false;
        std::printf("execution: sequential\n");
      } else if (trimmed == "\\async") {
        async = true;
        std::printf("execution: asynchronous iteration\n");
      } else if (trimmed == "\\latency") {
        std::printf("simulated search latency: %d ms\n", kLatencyMs);
      } else if (trimmed == "\\shards") {
        PrintShards(env, shard);
      } else if (trimmed == "\\shards fail") {
        shard.policy = wsq::ShardPolicy::kFail;
        std::printf("shard policy: fail unless all shards answer\n");
      } else if (wsq::StartsWith(trimmed, "\\shards quorum")) {
        shard.policy = wsq::ShardPolicy::kQuorum;
        shard.min_shards = std::atoi(trimmed.substr(14).c_str());
        if (shard.min_shards > 0) {
          std::printf("shard policy: quorum, min %d shard(s)\n",
                      shard.min_shards);
        } else {
          std::printf("shard policy: quorum, min = all shards\n");
        }
      } else if (trimmed == "\\shards best-effort") {
        shard.policy = wsq::ShardPolicy::kBestEffort;
        std::printf("shard policy: best-effort\n");
      } else if (wsq::StartsWith(trimmed, "\\deadline ")) {
        deadline_ms = std::atoll(trimmed.substr(10).c_str());
        if (deadline_ms < 0) deadline_ms = 0;
        if (deadline_ms > 0) {
          std::printf("query deadline: %lld ms\n",
                      (long long)deadline_ms);
        } else {
          std::printf("query deadline: none\n");
        }
      } else if (trimmed == "\\memory") {
        PrintMemory(env, query_budget_mb);
      } else if (trimmed == "\\statusz" || trimmed == "\\statusz json") {
        PrintLiveState(/*json=*/trimmed != "\\statusz");
      } else if (trimmed == "\\postmortem last" ||
                 trimmed == "\\postmortem") {
        auto last = env.db().query_log()->last();
        if (last == nullptr) {
          std::printf("no postmortems recorded\n");
        } else {
          std::printf("%s\n", last->ToText().c_str());
        }
      } else if (wsq::StartsWith(trimmed, "\\budget ")) {
        long mb = std::atol(trimmed.substr(8).c_str());
        query_budget_mb = mb < 0 ? 0 : static_cast<size_t>(mb);
        if (query_budget_mb > 0) {
          std::printf("per-query memory budget: %zu MB\n",
                      query_budget_mb);
        } else {
          std::printf("per-query memory budget: none\n");
        }
      } else if (trimmed == "\\cancel") {
        cancel_next = true;
        std::printf("next statement will be cancelled\n");
      } else if (wsq::StartsWith(trimmed, "\\dsq ")) {
        wsq::DsqEngine dsq(&env.db(), &env.altavista_service());
        auto r = dsq.Explain(trimmed.substr(5),
                             {"States.Name", "Movies.Title",
                              "Sigs.Name"});
        if (!r.ok()) {
          std::printf("error: %s\n", r.status().ToString().c_str());
        } else {
          std::printf("database terms near \"%s\" "
                      "(%llu concurrent searches):\n",
                      r->phrase.c_str(),
                      (unsigned long long)r->external_calls);
          for (const auto& t : r->terms) {
            std::printf("  %-24s %-14s %lld pages\n", t.term.c_str(),
                        t.source.c_str(), (long long)t.count);
          }
          if (r->terms.empty()) std::printf("  (no correlations)\n");
        }
      } else if (wsq::StartsWith(trimmed, "\\analyze ") ||
                 wsq::StartsWith(trimmed, "\\trace ")) {
        bool want_trace = wsq::StartsWith(trimmed, "\\trace ");
        std::string sql = trimmed.substr(want_trace ? 7 : 9);
        wsq::WsqDatabase::ExecOptions exec_options;
        exec_options.async_iteration = async;
        exec_options.analyze = !want_trace;
        exec_options.trace = want_trace;
        exec_options.deadline_micros = deadline_ms * 1000;
        exec_options.shard = shard;
        auto r = env.db().Execute(
            want_trace ? sql : "EXPLAIN ANALYZE " +
                                   std::string(async ? "ASYNC " : "SYNC ") +
                                   sql,
            exec_options);
        if (!r.ok()) {
          std::printf("error: %s\n", r.status().ToString().c_str());
        } else if (want_trace && r->trace.has_value()) {
          std::printf("%s", r->trace->ToString().c_str());
          std::printf("(%zu rows, %.3fs, %llu Web searches)\n",
                      r->result.rows.size(),
                      r->stats.elapsed_micros * 1e-6,
                      (unsigned long long)r->stats.external_calls);
        } else if (!r->result.rows.empty() &&
                   !r->result.rows[0].empty() &&
                   r->result.rows[0].value(0).is_string()) {
          std::printf("%s", r->result.rows[0].value(0)
                                .AsString().c_str());
        }
      } else if (wsq::StartsWith(trimmed, "\\plan ")) {
        auto plan = env.db().ExplainSelect(trimmed.substr(6), async);
        if (plan.ok()) {
          std::printf("%s", plan->c_str());
        } else {
          std::printf("error: %s\n", plan.status().ToString().c_str());
        }
      } else {
        std::printf("unknown command (try \\help)\n");
      }
      continue;
    }

    // Accumulate SQL until a terminating ';' (or EOF flushes).
    if (!buffer.empty()) buffer += " ";
    buffer += trimmed;
    if (buffer.back() != ';') continue;

    std::string sql = buffer;
    buffer.clear();

    wsq::WsqDatabase::ExecOptions exec_options;
    exec_options.async_iteration = async;
    exec_options.cancel = &token;
    exec_options.deadline_micros = deadline_ms * 1000;
    exec_options.shard = shard;
    exec_options.memory_budget_bytes = query_budget_mb << 20;
    token.Reset();
    if (cancel_next) {
      token.Cancel();
      cancel_next = false;
    }
    g_active_token.store(&token);
    auto r = env.db().Execute(sql, exec_options);
    g_active_token.store(nullptr);
    if (!r.ok()) {
      if (r.status().code() == wsq::StatusCode::kCancelled) {
        std::printf("query cancelled\n");
      } else if (r.status().code() ==
                 wsq::StatusCode::kDeadlineExceeded) {
        std::printf("deadline exceeded (%lld ms budget)\n",
                    (long long)deadline_ms);
      } else {
        std::printf("error: %s\n", r.status().ToString().c_str());
      }
      continue;
    }
    std::printf("%s", r->result.ToString(40).c_str());
    std::printf("(%zu rows, %.3fs, %llu Web searches, %s)\n",
                r->result.rows.size(), r->stats.elapsed_micros * 1e-6,
                (unsigned long long)r->stats.external_calls,
                async ? "async" : "sync");
    if (r->stats.partial_results > 0) {
      std::printf(
          "warning: %llu search(es) answered from a subset of shards "
          "(%llu shard answers missing); counts are lower bounds\n",
          (unsigned long long)r->stats.partial_results,
          (unsigned long long)r->stats.degraded_shards);
    }
    if (r->stats.spilled_bytes > 0 ||
        r->stats.pressure_released_bytes > 0) {
      // Mirror of the partial-result warning for the memory governor:
      // the answer is complete, but the query ran degraded.
      std::printf(
          "note: memory budget pressure — %llu bytes spilled to disk "
          "(%llu runs), %llu cached bytes shed; peak tracked %llu\n",
          (unsigned long long)r->stats.spilled_bytes,
          (unsigned long long)r->stats.spill_runs,
          (unsigned long long)r->stats.pressure_released_bytes,
          (unsigned long long)r->stats.peak_memory_bytes);
    }
  }

  // Flush an unterminated trailing statement (piped input).
  if (!buffer.empty()) {
    auto r = env.Run(buffer, async);
    if (r.ok()) {
      std::printf("%s(%zu rows)\n", r->result.ToString(40).c_str(),
                  r->result.rows.size());
    } else {
      std::printf("error: %s\n", r.status().ToString().c_str());
    }
  }
  return 0;
}
