#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_disk.h"
#include "storage/spill.h"

namespace wsq {
namespace {

// SpillManager whose devices run behind the PR 2 fault-injection
// harness: an InMemoryDiskManager "durable" store wrapped by a
// FaultInjectingDiskManager, all sharing one FaultController so a plan
// can target the Nth spill write of a query. Counts device cleanups so
// the sweep can assert scratch space is reclaimed on every path.
class FaultySpillManager : public SpillManager {
 public:
  explicit FaultySpillManager(FaultController* ctl) : ctl_(ctl) {}

  size_t cleanups() const {
    return cleanups_.load(std::memory_order_relaxed);
  }

 protected:
  Result<Device> NewDevice() override {
    auto store = std::make_unique<InMemoryDiskManager>();
    Device d;
    d.disk =
        std::make_unique<FaultInjectingDiskManager>(store.get(), ctl_);
    // The decorator holds a raw pointer to the store; keep the store
    // alive until the SpillFile's cleanup runs (after disk_.reset()).
    InMemoryDiskManager* raw = store.release();
    d.cleanup = [this, raw] {
      delete raw;
      cleanups_.fetch_add(1, std::memory_order_relaxed);
    };
    return d;
  }

 private:
  FaultController* ctl_;
  std::atomic<size_t> cleanups_{0};
};

// Write/read roundtrip directly against a faulty device.
TEST(SpillCrashTest, WriterSurfacesInjectedWriteFailure) {
  FaultController ctl(DiskFaultPlan{.seed = 1, .fail_at_op = 3});
  FaultySpillManager mgr(&ctl);
  auto file = mgr.Create();
  ASSERT_TRUE(file.ok());
  SpillWriter writer(file->get());
  std::string record(kPageDataSize, 'x');  // one page per append
  Status status = Status::OK();
  for (int i = 0; i < 8 && status.ok(); ++i) {
    status = writer.Append(record);
  }
  auto finished = writer.Finish();
  EXPECT_TRUE(!status.ok() || !finished.ok());
  file->reset();
  EXPECT_EQ(mgr.active_files(), 0u);
  EXPECT_EQ(mgr.cleanups(), 1u);
}

TEST(SpillCrashTest, ReaderSurfacesBitRotAsDataLoss) {
  FaultController ctl(DiskFaultPlan{.seed = 11});
  FaultySpillManager mgr(&ctl);
  auto file = mgr.Create();
  ASSERT_TRUE(file.ok());
  SpillWriter writer(file->get());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(writer.Append("record-" + std::to_string(i)).ok());
  }
  auto run = writer.Finish();
  ASSERT_TRUE(run.ok());

  // Corrupt every page read from here on: the checksum must catch it.
  ctl.set_plan(DiskFaultPlan{.seed = 11, .read_bit_flip_rate = 1.0});
  SpillReader reader(file->get(), *run);
  std::string record;
  auto next = reader.Next(&record);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
  file->reset();
  EXPECT_EQ(mgr.active_files(), 0u);
}

// End-to-end sweep: a sort query forced to spill, with a fault injected
// at every mutating-op index in turn. Each run must either complete
// with rows byte-identical to the fault-free reference or fail with a
// clean error status — and always release its reservations and its
// spill scratch files.
class SpillCrashSweepTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 600;
  static constexpr size_t kBudget = 4 * 1024;

  SpillCrashSweepTest() : pool_(64, &disk_), catalog_(&pool_) {
    TableInfo* t = *catalog_.CreateTable(
        "T", Schema({Column("K", TypeId::kString),
                     Column("V", TypeId::kInt64)}));
    Rng rng(23);
    for (size_t i = 0; i < kRows; ++i) {
      EXPECT_TRUE(
          t->Insert(Row({Value::Str(StrFormat(
                             "k%d", static_cast<int>(rng.Uniform(97)))),
                         Value::Int(static_cast<int64_t>(i))}))
              .ok());
    }
    auto stmt = Parser::ParseSelect("SELECT K, V FROM T ORDER BY K");
    EXPECT_TRUE(stmt.ok());
    Binder binder(&catalog_, &vtables_);
    auto plan = binder.Bind(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).value();
  }

  /// One governed execution against `mgr`; returns the status and, on
  /// success, the rows.
  Result<ResultSet> RunOnce(SpillManager* mgr) {
    MemoryBudget budget("sweep-query", kBudget);
    ExecContext ctx;
    ctx.memory = &budget;
    ctx.spill = mgr;
    auto result = ExecutePlan(*plan_, &ctx);
    EXPECT_EQ(budget.used(), 0u) << "leaked reservation";
    EXPECT_EQ(mgr->active_files(), 0u) << "leaked spill file";
    return result;
  }

  InMemoryDiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  VirtualTableRegistry vtables_;
  PlanNodePtr plan_;
};

TEST_F(SpillCrashSweepTest, FailAtEveryOpCompletesOrFailsCleanly) {
  // Fault-free reference (still spilling: the budget forces runs).
  FaultController ok_ctl;
  FaultySpillManager ok_mgr(&ok_ctl);
  auto reference = RunOnce(&ok_mgr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), kRows);
  uint64_t total_ops = ok_ctl.stats().ops;
  ASSERT_GT(total_ops, 8u) << "workload did not spill";

  size_t completed = 0, failed = 0;
  // Stride 3 keeps the sweep fast while still hitting allocation,
  // write, and merge-phase ops.
  for (uint64_t op = 1; op <= total_ops; op += 3) {
    FaultController ctl(DiskFaultPlan{.seed = op, .fail_at_op = op});
    FaultySpillManager mgr(&ctl);
    auto result = RunOnce(&mgr);
    if (result.ok()) {
      ++completed;
      ASSERT_EQ(result->rows.size(), reference->rows.size())
          << "fail_at_op=" << op;
      for (size_t i = 0; i < result->rows.size(); ++i) {
        ASSERT_EQ(result->rows[i], reference->rows[i])
            << "fail_at_op=" << op << " row " << i;
      }
    } else {
      ++failed;
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // Every injected fault hit a mutating spill op, so every run fails;
  // the point of the sweep is that each failure is clean.
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(completed, 0u);
}

TEST_F(SpillCrashSweepTest, PowerLossMidSpillFailsCleanly) {
  constexpr uint64_t kCrashOps[] = {2, 7, 19, 31};
  constexpr int64_t kTornBytes[] = {-1, 137};
  for (uint64_t op : kCrashOps) {
    for (int64_t torn : kTornBytes) {
      DiskFaultPlan plan;
      plan.seed = op;
      plan.crash_at_op = op;
      plan.torn_bytes = torn;
      FaultController ctl(plan);
      FaultySpillManager mgr(&ctl);
      auto result = RunOnce(&mgr);
      ASSERT_FALSE(result.ok())
          << "crash_at_op=" << op << " torn=" << torn;
      EXPECT_TRUE(ctl.stats().crashed);
    }
  }
}

TEST_F(SpillCrashSweepTest, BitRotNeverReturnsWrongRows) {
  FaultController ok_ctl;
  FaultySpillManager ok_mgr(&ok_ctl);
  auto reference = RunOnce(&ok_mgr);
  ASSERT_TRUE(reference.ok());

  size_t data_loss = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    DiskFaultPlan plan;
    plan.seed = seed;
    plan.read_bit_flip_rate = 0.25;
    FaultController ctl(plan);
    FaultySpillManager mgr(&ctl);
    auto result = RunOnce(&mgr);
    if (result.ok()) {
      // The flipped pages happened to miss this query's reads; the
      // answer must still be exact.
      ASSERT_EQ(result->rows.size(), reference->rows.size());
      for (size_t i = 0; i < result->rows.size(); ++i) {
        ASSERT_EQ(result->rows[i], reference->rows[i]) << "seed " << seed;
      }
    } else {
      ++data_loss;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << result.status().ToString();
    }
  }
  EXPECT_GT(data_loss, 0u) << "sweep never exercised a corrupt read";
}

}  // namespace
}  // namespace wsq
