#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "wsq/database.h"
#include "wsq/demo.h"

// End-to-end memory governor: a workload sized at several times the
// database budget must complete via the degradation ladder (spill, then
// cache/pool shedding) with byte-identical results, balanced ledgers,
// and no spill scratch files left behind; only a budget that shedding
// cannot satisfy refuses statements with kResourceExhausted.

namespace wsq {
namespace {

constexpr size_t kRows = 4000;

// ~50+ bytes per row, ~200 KB+ working set for a full sort.
void LoadBigTable(WsqDatabase* db) {
  TableInfo* t = *db->catalog()->CreateTable(
      "Big", Schema({Column("K", TypeId::kString),
                     Column("G", TypeId::kInt64),
                     Column("V", TypeId::kInt64)}));
  Rng rng(99);
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        t->Insert(Row({Value::Str("row-" + std::to_string(rng.Uniform(509))),
                       Value::Int(static_cast<int64_t>(rng.Uniform(61))),
                       Value::Int(static_cast<int64_t>(i))}))
            .ok());
  }
}

// The Zipf-skewed query mix of the acceptance scenario: the heavy
// hitters are the memory-hungry shapes.
const char* const kMix[] = {
    "SELECT K, V FROM Big ORDER BY K, V",
    "SELECT K, COUNT(*), SUM(V), MIN(V), MAX(V) FROM Big "
    "GROUP BY K ORDER BY K",
    "SELECT G, V FROM Big ORDER BY G DESC, V",
    "SELECT DISTINCT K FROM Big ORDER BY K",
    "SELECT G, COUNT(*) FROM Big GROUP BY G ORDER BY G",
};

TEST(MemoryGovernorTest, ConstrainedMixMatchesUngovernedByteForByte) {
  WsqDatabase reference;
  LoadBigTable(&reference);

  WsqDatabase governed;
  LoadBigTable(&governed);
  // The stored table's dirty buffer-pool pages are a fixed (unsheddable)
  // charge; leave them plus a sliver of headroom that is roughly a
  // tenth of the sort working set, so every heavy query must degrade
  // and none may fail.
  governed.memory_budget()->SetLimit(
      governed.buffer_pool()->resident_pages() * kPageSize + 64 * 1024);

  Rng rng(5);
  ZipfDistribution zipf(std::size(kMix), 1.1);
  uint64_t total_spilled = 0;
  for (int i = 0; i < 24; ++i) {
    const char* sql = kMix[zipf.Sample(rng)];
    auto want = reference.Execute(sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = governed.Execute(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
    ASSERT_EQ(got->result.rows.size(), want->result.rows.size()) << sql;
    for (size_t r = 0; r < want->result.rows.size(); ++r) {
      ASSERT_EQ(got->result.rows[r], want->result.rows[r])
          << sql << " row " << r;
    }
    EXPECT_EQ(want->stats.spilled_bytes, 0u);
    total_spilled += got->stats.spilled_bytes;
  }
  EXPECT_GT(total_spilled, 0u) << "mix never hit the budget";
  // Every scratch file is gone and every per-query reservation was
  // released: what remains charged is the buffer pool's resident pages.
  EXPECT_EQ(governed.spill()->active_files(), 0u);
  EXPECT_EQ(governed.memory_budget()->used(),
            governed.buffer_pool()->resident_pages() * kPageSize);
}

TEST(MemoryGovernorTest, QueryStatsReportDegradation) {
  WsqDatabase db;
  LoadBigTable(&db);
  db.memory_budget()->SetLimit(
      db.buffer_pool()->resident_pages() * kPageSize + 48 * 1024);
  auto r = db.Execute(kMix[0]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stats.spilled_bytes, 0u);
  EXPECT_GT(r->stats.spill_runs, 0u);
  EXPECT_GT(r->stats.peak_memory_bytes, 0u);
}

TEST(MemoryGovernorTest, PerQueryBudgetCapsPeakTrackedBytes) {
  WsqDatabase db;
  LoadBigTable(&db);
  WsqDatabase::ExecOptions exec;
  constexpr size_t kQueryBudget = 48 * 1024;
  exec.memory_budget_bytes = kQueryBudget;
  auto r = db.Execute(kMix[0], exec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stats.spilled_bytes, 0u);
  // Spilling keeps the tracked working set at the budget; allow the
  // one-row forced overage the charge protocol permits.
  EXPECT_LE(r->stats.peak_memory_bytes, kQueryBudget + 16 * 1024);
}

TEST(MemoryGovernorTest, SpillDisabledFailsWithResourceExhausted) {
  WsqDatabase::Options options;
  options.enable_spill = false;
  WsqDatabase db(options);
  LoadBigTable(&db);
  db.memory_budget()->SetLimit(
      db.buffer_pool()->resident_pages() * kPageSize + 48 * 1024);
  auto r = db.Execute(kMix[0]);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  // The failed query released everything it charged.
  EXPECT_EQ(db.memory_budget()->used(),
            db.buffer_pool()->resident_pages() * kPageSize);
}

TEST(MemoryGovernorTest, ExhaustedBudgetRefusesNewStatements) {
  WsqDatabase db;
  LoadBigTable(&db);
  size_t limit =
      db.buffer_pool()->resident_pages() * kPageSize + 256 * 1024;
  db.memory_budget()->SetLimit(limit);
  // Tier 3: something outside the ladder's reach holds the whole
  // budget — admission must refuse rather than thrash.
  db.memory_budget()->ForceReserve(limit);
  auto refused = db.Execute("SELECT COUNT(*) FROM Big GROUP BY K");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  db.memory_budget()->Release(limit);
  auto ok = db.Execute("SELECT G, COUNT(*) FROM Big GROUP BY G");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// Each database exports only its own budget and the process budget is
// exported once: the registry sums series that share name and labels,
// so a per-database copy would multiply every process value.
TEST(MemoryGovernorTest, ProcessBudgetIsExportedOnce) {
  WsqDatabase a;
  WsqDatabase b;
  WsqDatabase c;
  a.memory_budget()->ForceReserve(1024);
  b.memory_budget()->ForceReserve(2048);
  MemoryBudget* process = MemoryBudget::Process();
  const std::string text =
      "\n" + MetricsRegistry::Global()->ExportPrometheusText();
  auto exported = [&](const std::string& name) {
    const std::string line_start = "\n" + name + "{budget=\"process\"} ";
    size_t at = text.find(line_start);
    if (at == std::string::npos) return std::string("missing");
    at += line_start.size();
    return text.substr(at, text.find('\n', at) - at);
  };
  const MemoryBudgetStats s = process->stats();
  EXPECT_GE(process->used(), 3072u);
  EXPECT_EQ(exported("wsq_mem_used_bytes"), std::to_string(process->used()));
  EXPECT_EQ(exported("wsq_mem_limit_bytes"),
            std::to_string(process->limit()));
  EXPECT_EQ(exported("wsq_mem_peak_used_bytes"),
            std::to_string(process->peak_used()));
  EXPECT_EQ(exported("wsq_mem_reserve_failures_total"),
            std::to_string(s.reserve_failures));
  EXPECT_EQ(exported("wsq_mem_pressure_invocations_total"),
            std::to_string(s.pressure_invocations));
  EXPECT_EQ(exported("wsq_mem_pressure_released_bytes_total"),
            std::to_string(s.pressure_released_bytes));
  EXPECT_EQ(exported("wsq_mem_forced_overages_total"),
            std::to_string(s.forced_overages));
  a.memory_budget()->Release(1024);
  b.memory_budget()->Release(2048);
}

TEST(MemoryGovernorTest, EachDatabaseBudgetIsExportedApart) {
  WsqDatabase::Options small;
  small.memory_budget_bytes = 32u << 20;
  WsqDatabase::Options large;
  large.memory_budget_bytes = 64u << 20;
  WsqDatabase a(small);
  WsqDatabase b(large);
  a.memory_budget()->ForceReserve(4096);
  b.memory_budget()->ForceReserve(12288);
  // {database label -> value} of one `budget="db"` series.
  auto series = [](const std::string& text, const std::string& name) {
    std::map<std::string, std::string> out;
    const std::string start = "\n" + name + "{budget=\"db\",database=\"";
    for (size_t at = text.find(start); at != std::string::npos;
         at = text.find(start, at + 1)) {
      const size_t label = at + start.size();
      const size_t label_end = text.find('"', label);
      const size_t value = text.find("} ", label_end) + 2;
      out[text.substr(label, label_end - label)] =
          text.substr(value, text.find('\n', value) - value);
    }
    return out;
  };
  const std::string text =
      "\n" + MetricsRegistry::Global()->ExportPrometheusText();
  const auto limits = series(text, "wsq_mem_limit_bytes");
  const auto peaks = series(text, "wsq_mem_peak_used_bytes");
  // Each database's limit and peak sit under one label of their own.
  auto label_of = [&](WsqDatabase& db) {
    for (const auto& [label, limit] : limits) {
      auto peak = peaks.find(label);
      if (limit == std::to_string(db.memory_budget()->limit()) &&
          peak != peaks.end() &&
          peak->second == std::to_string(db.memory_budget()->peak_used())) {
        return label;
      }
    }
    return std::string("missing");
  };
  const std::string label_a = label_of(a);
  const std::string label_b = label_of(b);
  EXPECT_NE(label_a, "missing") << text;
  EXPECT_NE(label_b, "missing") << text;
  EXPECT_NE(label_a, label_b);
  a.memory_budget()->Release(4096);
  b.memory_budget()->Release(12288);
}

TEST(MemoryGovernorTest, PressureShedsClientCacheEntries) {
  DemoOptions opt;
  opt.corpus.num_documents = 400;
  opt.corpus.vocab_size = 300;
  opt.latency = LatencyModel::Instant();
  opt.client_cache_entries = 64;
  DemoEnv env(opt);
  // Warm the cache (its bytes charge the database budget)...
  for (const char* q : {"database", "systems", "query"}) {
    auto r = env.db().Execute(
        std::string("SELECT Count FROM WebCount WHERE T1 = '") + q + "'");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_GT(env.client_cache()->bytes(), 0u);
  // ...then a memory-hungry sort: its failing reservations run the
  // pressure hooks, which shed cached responses (tier 2).
  TableInfo* t = *env.db().catalog()->CreateTable(
      "Wide", Schema({Column("S", TypeId::kString)}));
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        t->Insert(Row({Value::Str("padding-" + std::to_string(i * 37))}))
            .ok());
  }
  // Clamp the budget now that the fixed charges (resident pages, the
  // warm cache) are known: the sort's working set must not fit.
  env.db().memory_budget()->SetLimit(
      env.db().buffer_pool()->resident_pages() * kPageSize +
      env.client_cache()->bytes() + 24 * 1024);
  auto big = env.db().Execute("SELECT S FROM Wide ORDER BY S");
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_GT(env.client_cache()->stats().pressure_shed, 0u);
  EXPECT_GT(big->stats.pressure_released_bytes, 0u);
}

TEST(MemoryGovernorTest, ConcurrentGovernedQueriesStayBalanced) {
  WsqDatabase db;
  LoadBigTable(&db);
  db.memory_budget()->SetLimit(
      db.buffer_pool()->resident_pages() * kPageSize + 96 * 1024);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < 6; ++i) {
        const char* sql = kMix[rng.Uniform(std::size(kMix))];
        auto r = db.Execute(sql);
        // Under concurrent pressure tier 3 may refuse admission; the
        // contract is "retry after load drops", so do that — but only
        // ever for kResourceExhausted, and progress must be made.
        for (int retry = 0;
             !r.ok() &&
             r.status().code() == StatusCode::kResourceExhausted &&
             retry < 100;
             ++retry) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          r = db.Execute(sql);
        }
        ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.spill()->active_files(), 0u);
  EXPECT_EQ(db.memory_budget()->used(),
            db.buffer_pool()->resident_pages() * kPageSize);
}

}  // namespace
}  // namespace wsq
