#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "exec/req_sync_op.h"

// Buffer-budget behaviour of ReqSync: backpressure keeps the pending
// buffer (rows and approximate bytes) under the configured budget even
// under proliferation; shed-oldest trades completeness for the bound.

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

Schema ThreeColumnSchema() {
  return Schema({Column("K", TypeId::kString, "t"),
                 Column("V", TypeId::kInt64, "t"),
                 Column("W", TypeId::kInt64, "t")});
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

TEST(ReqSyncBudgetTest, BackpressureKeepsPeakRowsUnderBudget) {
  ReqPump pump;
  constexpr int kRows = 20;
  constexpr uint64_t kBudget = 4;
  std::vector<Row> input;
  input.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    CallId c = Delayed(&pump, {Row({Value::Int(i)})}, 1000);
    input.push_back(Row({Value::Str("k"), Value::Pending(c, 0)}));
  }
  StubNode stub(TwoColumnSchema());
  ReqSyncNode node(std::make_unique<StubNode>(TwoColumnSchema()),
                   std::vector<size_t>{1});
  node.max_buffered_rows = kBudget;
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(&node,
                     std::make_unique<VectorOperator>(&stub.schema(),
                                                      std::move(input)),
                     &ctx);
  auto out = Drain(&op);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Backpressure delays pulls; it never loses tuples.
  EXPECT_EQ(out->size(), static_cast<size_t>(kRows));
  EXPECT_LE(ctx.stats.peak_buffered_rows, kBudget);
  EXPECT_EQ(ctx.stats.shed_tuples, 0u);
  pump.Drain();
  EXPECT_EQ(pump.pending_results(), 0u);
}

TEST(ReqSyncBudgetTest, BackpressureKeepsPeakBytesNearBudget) {
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
  const uint64_t byte_budget = 3 * one_row_bytes;
  node.max_buffered_bytes = byte_budget;
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(&node,
                     std::make_unique<VectorOperator>(&stub.schema(),
                                                      std::move(input)),
                     &ctx);
  auto out = Drain(&op);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), static_cast<size_t>(kRows));
  // A pull happens only while strictly under the byte budget, so the
  // peak can overshoot by at most one tuple.
  EXPECT_LT(ctx.stats.peak_buffered_bytes, byte_budget + one_row_bytes);
  pump.Drain();
}

TEST(ReqSyncBudgetTest, ShedOldestDropsButCompletes) {
  ReqPump pump;
  constexpr int kRows = 5;
  constexpr uint64_t kBudget = 2;
  std::vector<Row> input;
  std::vector<CallId> calls;
  for (int i = 0; i < kRows; ++i) {
    // Long delay: nothing completes until all rows are absorbed, so
    // the shed decision is deterministic (oldest three dropped).
    CallId c = Delayed(&pump, {Row({Value::Int(i)})}, 30000);
    calls.push_back(c);
    input.push_back(Row({Value::Str("k"), Value::Pending(c, 0)}));
  }
  StubNode stub(TwoColumnSchema());
  ReqSyncNode node(std::make_unique<StubNode>(TwoColumnSchema()),
                   std::vector<size_t>{1});
  node.max_buffered_rows = kBudget;
  node.shed_oldest = true;
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(&node,
                     std::make_unique<VectorOperator>(&stub.schema(),
                                                      std::move(input)),
                     &ctx);
  auto out = Drain(&op);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), static_cast<size_t>(kBudget));
  // The survivors are the newest tuples (completion order may vary).
  std::vector<int64_t> got = {(*out)[0].value(1).AsInt(),
                              (*out)[1].value(1).AsInt()};
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got[0], kRows - 2);
  EXPECT_EQ(got[1], kRows - 1);
  EXPECT_EQ(ctx.stats.shed_tuples, static_cast<uint64_t>(kRows - kBudget));
  EXPECT_LE(ctx.stats.peak_buffered_rows, kBudget);
  // Shed tuples' calls are still reaped: nothing leaks in the hash.
  pump.Drain();
  EXPECT_EQ(pump.pending_results(), 0u);
}

// Proliferation (§4.4): one completion fans a tuple out into several
// copies still pending on a second call. In shed-oldest mode the
// copies are bounded by the budget too.
TEST(ReqSyncBudgetTest, ProliferationRespectsShedBudget) {
  ReqPump pump;
  // Call A completes quickly with three rows; call B much later.
  CallId a = Delayed(
      &pump,
      {Row({Value::Int(10)}), Row({Value::Int(11)}),
       Row({Value::Int(12)})},
      2000);
  CallId b = Delayed(&pump, {Row({Value::Int(99)})}, 40000);
  std::vector<Row> input = {Row({Value::Str("k"), Value::Pending(a, 0),
                                 Value::Pending(b, 0)})};
  StubNode stub(ThreeColumnSchema());
  ReqSyncNode node(std::make_unique<StubNode>(ThreeColumnSchema()),
                   std::vector<size_t>{1, 2});
  node.max_buffered_rows = 2;
  node.shed_oldest = true;
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(&node,
                     std::make_unique<VectorOperator>(&stub.schema(),
                                                      std::move(input)),
                     &ctx);
  auto out = Drain(&op);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Three proliferated copies, budget two: the oldest copy is shed.
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].value(1).AsInt(), 11);
  EXPECT_EQ((*out)[1].value(1).AsInt(), 12);
  EXPECT_EQ((*out)[0].value(2).AsInt(), 99);
  EXPECT_EQ(ctx.stats.shed_tuples, 1u);
  EXPECT_LE(ctx.stats.peak_buffered_rows, 2u);
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
