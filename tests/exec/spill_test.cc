#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "exec/executor.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "storage/disk_manager.h"
#include "storage/spill.h"

namespace wsq {
namespace {

// Sort/Aggregate/Distinct under a budget too small for their build
// state: every query must degrade to the external (spilling) algorithm
// and still return byte-identical rows, with the ledger balancing to
// zero and no spill file left behind.
class SpillTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 3000;

  SpillTest() : pool_(64, &disk_), catalog_(&pool_) {
    TableInfo* t = *catalog_.CreateTable(
        "T", Schema({Column("K", TypeId::kString),
                     Column("G", TypeId::kInt64),
                     Column("V", TypeId::kInt64),
                     Column("W", TypeId::kDouble)}));
    Rng rng(7);
    for (size_t i = 0; i < kRows; ++i) {
      // Skewed group ids and colliding sort keys so ties exercise the
      // stability guarantee through the merge.
      int64_t g = static_cast<int64_t>(rng.Uniform(37));
      std::string k = "key-" + std::to_string(rng.Uniform(city_count_));
      EXPECT_TRUE(
          t->Insert(Row({Value::Str(k), Value::Int(g),
                         Value::Int(static_cast<int64_t>(i)),
                         Value::Real(static_cast<double>(g) * 0.5)}))
              .ok());
    }
  }

  struct RunResult {
    ResultSet result;
    uint64_t spilled_bytes = 0;
    uint64_t spill_runs = 0;
  };

  /// Runs `sql` under `budget_bytes` (0 = ungoverned). Asserts the
  /// ledger is balanced and every spill file is gone afterwards.
  RunResult Run(const std::string& sql, size_t budget_bytes) {
    auto stmt = Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_, &vtables_);
    auto plan = binder.Bind(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << sql;

    MemoryBudget budget("test-query", budget_bytes);
    SpillManager spill;
    ExecContext ctx;
    ctx.memory = &budget;
    ctx.spill = &spill;
    auto result = ExecutePlan(**plan, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;

    EXPECT_EQ(budget.used(), 0u) << "leaked reservation: " << sql;
    EXPECT_EQ(spill.active_files(), 0u) << "leaked spill file: " << sql;

    RunResult out;
    if (result.ok()) out.result = std::move(result).value();
    out.spilled_bytes = ctx.stats.spilled_bytes;
    out.spill_runs = ctx.stats.spill_runs;
    return out;
  }

  /// The governed run must spill AND match the ungoverned rows exactly.
  void ExpectSpilledIdentical(const std::string& sql,
                              size_t budget_bytes) {
    RunResult reference = Run(sql, 0);
    EXPECT_EQ(reference.spilled_bytes, 0u);
    RunResult governed = Run(sql, budget_bytes);
    EXPECT_GT(governed.spilled_bytes, 0u) << "did not spill: " << sql;
    EXPECT_GT(governed.spill_runs, 0u);
    ASSERT_EQ(governed.result.rows.size(), reference.result.rows.size())
        << sql;
    for (size_t i = 0; i < reference.result.rows.size(); ++i) {
      EXPECT_EQ(governed.result.rows[i], reference.result.rows[i])
          << sql << " row " << i;
    }
  }

  size_t city_count_ = 211;
  InMemoryDiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  VirtualTableRegistry vtables_;
};

TEST_F(SpillTest, ExternalSortMatchesInMemorySort) {
  ExpectSpilledIdentical("SELECT K, V FROM T ORDER BY K", 32 * 1024);
}

TEST_F(SpillTest, ExternalSortDescendingWithTies) {
  // Heavy key collisions: stability across spilled runs is the
  // byte-identical part that a naive merge gets wrong.
  ExpectSpilledIdentical("SELECT G, V FROM T ORDER BY G DESC",
                         32 * 1024);
}

TEST_F(SpillTest, ExternalSortMultiKey) {
  ExpectSpilledIdentical("SELECT K, G, V FROM T ORDER BY G, K DESC, V",
                         32 * 1024);
}

TEST_F(SpillTest, ExternalAggregateMatchesInMemory) {
  ExpectSpilledIdentical(
      "SELECT K, COUNT(*), SUM(V), MIN(V), MAX(V), AVG(W) FROM T "
      "GROUP BY K ORDER BY K",
      16 * 1024);
}

TEST_F(SpillTest, ExternalAggregateManyGroups) {
  // Group-per-row: the accumulator map itself is the working set.
  ExpectSpilledIdentical(
      "SELECT V, COUNT(*) FROM T GROUP BY V ORDER BY V", 32 * 1024);
}

TEST_F(SpillTest, TinyBudgetManyRuns) {
  RunResult r = Run("SELECT K, V FROM T ORDER BY K, V", 4 * 1024);
  EXPECT_EQ(r.result.rows.size(), kRows);
  EXPECT_GT(r.spill_runs, 4u);
}

TEST_F(SpillTest, NoSpillManagerFailsCleanly) {
  auto stmt = Parser::ParseSelect("SELECT K FROM T ORDER BY K");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&catalog_, &vtables_);
  auto plan = binder.Bind(**stmt);
  ASSERT_TRUE(plan.ok());
  MemoryBudget budget("test-query", 4 * 1024);
  ExecContext ctx;
  ctx.memory = &budget;  // no ctx.spill: tier 1 is unavailable
  auto result = ExecutePlan(**plan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(SpillTest, UngovernedQueriesNeverSpill) {
  RunResult r = Run(
      "SELECT G, COUNT(*) FROM T GROUP BY G ORDER BY G", 0);
  EXPECT_EQ(r.spilled_bytes, 0u);
  EXPECT_EQ(r.result.rows.size(), 37u);
}

}  // namespace
}  // namespace wsq
