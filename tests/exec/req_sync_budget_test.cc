#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "exec/req_sync_op.h"

// Buffer bound of ReqSync: backpressure keeps the pending buffer's
// approximate bytes under the query memory budget without losing a
// tuple.

namespace wsq {
namespace {

class StubNode : public PlanNode {
 public:
  explicit StubNode(Schema schema)
      : PlanNode(Kind::kScan, std::move(schema)) {}
  std::string Label() const override { return "Stub"; }
};

class VectorOperator : public Operator {
 public:
  VectorOperator(const Schema* schema, std::vector<Row> rows)
      : Operator(schema), rows_(std::move(rows)) {}

  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  Result<bool> NextImpl(Row* row) override {
    if (next_ >= rows_.size()) return false;
    *row = rows_[next_++];
    return true;
  }
  Status CloseImpl() override { return Status::OK(); }

 private:
  std::vector<Row> rows_;
  size_t next_ = 0;
};

Schema TwoColumnSchema() {
  return Schema({Column("K", TypeId::kString, "t"),
                 Column("V", TypeId::kInt64, "t")});
}

// Registers a call that completes with `rows` after `delay_micros`.
CallId Delayed(ReqPump* pump, std::vector<Row> rows,
               int64_t delay_micros = 2000) {
  return pump->Register(
      "engine", [rows = std::move(rows), delay_micros](
                    CallCompletion done) mutable {
        std::thread([rows = std::move(rows), delay_micros,
                     done = std::move(done)]() mutable {
          std::this_thread::sleep_for(
              std::chrono::microseconds(delay_micros));
          done(CallResult{Status::OK(), std::move(rows)});
        }).detach();
      });
}

Result<std::vector<Row>> Drain(ReqSyncOperator* op) {
  WSQ_RETURN_IF_ERROR(op->Open());
  std::vector<Row> out;
  Row row;
  while (true) {
    WSQ_ASSIGN_OR_RETURN(bool more, op->Next(&row));
    if (!more) break;
    out.push_back(row);
  }
  WSQ_RETURN_IF_ERROR(op->Close());
  return out;
}

TEST(ReqSyncBudgetTest, BackpressureKeepsPeakBytesUnderQueryBudget) {
  ReqPump pump;
  constexpr int kRows = 16;
  std::vector<Row> input;
  size_t one_row_bytes = 0;
  for (int i = 0; i < kRows; ++i) {
    CallId c = Delayed(&pump, {Row({Value::Int(i)})}, 1000);
    Row row({Value::Str(std::string(256, 'x')), Value::Pending(c, 0)});
    one_row_bytes = row.ApproxBytes();
    input.push_back(std::move(row));
  }
  StubNode stub(TwoColumnSchema());
  ReqSyncNode node(std::make_unique<StubNode>(TwoColumnSchema()),
                   std::vector<size_t>{1});
  const size_t byte_budget = 3 * one_row_bytes;
  MemoryBudget query_budget("query", byte_budget);
  ExecContext ctx;
  ctx.pump = &pump;
  ctx.memory = &query_budget;
  ReqSyncOperator op(&node,
                     std::make_unique<VectorOperator>(&stub.schema(),
                                                      std::move(input)),
                     &ctx);
  auto out = Drain(&op);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Backpressure delays pulls; it never loses tuples.
  EXPECT_EQ(out->size(), static_cast<size_t>(kRows));
  // A pull happens only while the budget has headroom, so the peak can
  // overshoot by at most one tuple.
  EXPECT_LT(ctx.stats.peak_buffered_bytes, byte_budget + one_row_bytes);
  EXPECT_LE(ctx.stats.peak_buffered_rows, 3u);
  EXPECT_EQ(query_budget.used(), 0u);
  pump.Drain();
  EXPECT_EQ(pump.pending_results(), 0u);
}

// Without a budget the same workload buffers everything — the budget
// is what bounds the peak, not the workload shape.
TEST(ReqSyncBudgetTest, NoBudgetBuffersEverything) {
  ReqPump pump;
  constexpr int kRows = 12;
  std::vector<Row> input;
  for (int i = 0; i < kRows; ++i) {
    CallId c = Delayed(&pump, {Row({Value::Int(i)})}, 20000);
    input.push_back(Row({Value::Str("k"), Value::Pending(c, 0)}));
  }
  StubNode stub(TwoColumnSchema());
  ReqSyncNode node(std::make_unique<StubNode>(TwoColumnSchema()),
                   std::vector<size_t>{1});
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(&node,
                     std::make_unique<VectorOperator>(&stub.schema(),
                                                      std::move(input)),
                     &ctx);
  auto out = Drain(&op);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), static_cast<size_t>(kRows));
  // Open() drains the child before anything completes: all 12 buffered.
  EXPECT_EQ(ctx.stats.peak_buffered_rows, static_cast<uint64_t>(kRows));
  pump.Drain();
}

}  // namespace
}  // namespace wsq
