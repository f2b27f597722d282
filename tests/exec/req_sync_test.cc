#include "exec/req_sync_op.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "common/strings.h"

namespace wsq {
namespace {

// Minimal plan node giving ReqSyncNode a child with a schema.
class StubNode : public PlanNode {
 public:
  explicit StubNode(Schema schema)
      : PlanNode(Kind::kScan, std::move(schema)) {}
  std::string Label() const override { return "Stub"; }
};

// Serves a fixed list of rows.
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

class ReqSyncOpTest : public ::testing::Test {
 protected:
  // Builds a ReqSync over fixed input rows and drains it.
  Result<std::vector<Row>> RunReqSync(std::vector<Row> input,
                                      ReqPump* pump) {
    StubNode stub(TwoColumnSchema());
    auto node = std::make_unique<ReqSyncNode>(
        std::make_unique<StubNode>(TwoColumnSchema()),
        std::vector<size_t>{1});
    auto child = std::make_unique<VectorOperator>(&stub.schema(),
                                                  std::move(input));
    ExecContext ctx;
    ctx.pump = pump;
    ReqSyncOperator op(node.get(), std::move(child), &ctx);
    WSQ_RETURN_IF_ERROR(op.Open());
    std::vector<Row> out;
    Row row;
    while (true) {
      WSQ_ASSIGN_OR_RETURN(bool more, op.Next(&row));
      if (!more) break;
      out.push_back(row);
    }
    WSQ_RETURN_IF_ERROR(op.Close());
    return out;
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
};

TEST_F(ReqSyncOpTest, CompleteTuplesPassThrough) {
  ReqPump pump;
  std::vector<Row> input = {Row({Value::Str("a"), Value::Int(1)}),
                            Row({Value::Str("b"), Value::Int(2)})};
  auto out = RunReqSync(input, &pump);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0], input[0]);
  EXPECT_EQ((*out)[1], input[1]);
}

TEST_F(ReqSyncOpTest, SingleRowCompletion) {
  ReqPump pump;
  CallId c = Delayed(&pump, {Row({Value::Int(42)})});
  auto out = RunReqSync(
      {Row({Value::Str("a"), Value::Pending(c, 0)})}, &pump);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value(1).AsInt(), 42);
  EXPECT_FALSE((*out)[0].HasPlaceholders());
}

TEST_F(ReqSyncOpTest, ZeroRowsCancelsTuple) {
  ReqPump pump;
  CallId c = Delayed(&pump, {});
  auto out = RunReqSync(
      {Row({Value::Str("a"), Value::Pending(c, 0)}),
       Row({Value::Str("keep"), Value::Int(7)})},
      &pump);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value(0).AsString(), "keep");
}

TEST_F(ReqSyncOpTest, MultiRowProliferation) {
  ReqPump pump;
  CallId c = Delayed(&pump, {Row({Value::Int(1)}), Row({Value::Int(2)}),
                             Row({Value::Int(3)})});
  auto out = RunReqSync(
      {Row({Value::Str("x"), Value::Pending(c, 0)})}, &pump);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);  // 1 tuple -> 3 copies (paper §4.3)
  std::set<int64_t> values;
  for (const Row& r : *out) {
    EXPECT_EQ(r.value(0).AsString(), "x");
    values.insert(r.value(1).AsInt());
  }
  EXPECT_EQ(values, (std::set<int64_t>{1, 2, 3}));
}

TEST_F(ReqSyncOpTest, MultipleWaitersOnOneCall) {
  ReqPump pump;
  CallId c = Delayed(&pump, {Row({Value::Int(9)})});
  auto out = RunReqSync(
      {Row({Value::Str("a"), Value::Pending(c, 0)}),
       Row({Value::Str("b"), Value::Pending(c, 0)})},
      &pump);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].value(1).AsInt(), 9);
  EXPECT_EQ((*out)[1].value(1).AsInt(), 9);
}

TEST_F(ReqSyncOpTest, TupleWaitingOnTwoCalls) {
  // Paper §4.4: a buffered tuple may hold placeholders for two pending
  // calls; proliferation from the first must copy references to the
  // second, and all copies must be patched when it completes.
  ReqPump pump;
  CallId a = Delayed(&pump, {Row({Value::Int(1)}), Row({Value::Int(2)})},
                     1000);
  CallId b = Delayed(&pump, {Row({Value::Int(10)})}, 30000);

  StubNode stub(TwoColumnSchema());
  Schema three({Column("A", TypeId::kInt64, "t"),
                Column("B", TypeId::kInt64, "t"),
                Column("C", TypeId::kString, "t")});
  auto node = std::make_unique<ReqSyncNode>(
      std::make_unique<StubNode>(three), std::vector<size_t>{0, 1});
  auto child = std::make_unique<VectorOperator>(
      &node->schema(),
      std::vector<Row>{Row({Value::Pending(a, 0), Value::Pending(b, 0),
                            Value::Str("x")})});
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(node.get(), std::move(child), &ctx);
  ASSERT_TRUE(op.Open().ok());
  std::vector<Row> out;
  Row row;
  while (true) {
    auto more = op.Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    out.push_back(row);
  }
  ASSERT_TRUE(op.Close().ok());

  // Call a proliferates to 2 copies; call b patches BOTH copies.
  ASSERT_EQ(out.size(), 2u);
  std::set<int64_t> a_values;
  for (const Row& r : out) {
    a_values.insert(r.value(0).AsInt());
    EXPECT_EQ(r.value(1).AsInt(), 10);
    EXPECT_EQ(r.value(2).AsString(), "x");
  }
  EXPECT_EQ(a_values, (std::set<int64_t>{1, 2}));
}

TEST_F(ReqSyncOpTest, FailedCallPropagatesError) {
  ReqPump pump;
  CallId c = pump.Register("engine", [](CallCompletion done) {
    done(CallResult{Status::IOError("engine down"), {}});
  });
  auto out = RunReqSync(
      {Row({Value::Str("a"), Value::Pending(c, 0)})}, &pump);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kIOError);
}

CallId Failing(ReqPump* pump, Status error) {
  return pump->Register(
      "engine", [error = std::move(error)](CallCompletion done) {
        done(CallResult{error, {}});
      });
}

// Like RunReqSync but with a policy; the operator counts into
// `ctx->stats` and takes its pump from `ctx->pump`.
Result<std::vector<Row>> RunWithPolicy(std::vector<Row> input,
                                       OnCallError policy,
                                       ExecContext* ctx) {
  StubNode stub(TwoColumnSchema());
  auto node = std::make_unique<ReqSyncNode>(
      std::make_unique<StubNode>(TwoColumnSchema()),
      std::vector<size_t>{1});
  node->on_call_error = policy;
  auto child = std::make_unique<VectorOperator>(&stub.schema(),
                                                std::move(input));
  ReqSyncOperator op(node.get(), std::move(child), ctx);
  WSQ_RETURN_IF_ERROR(op.Open());
  std::vector<Row> out;
  Row row;
  while (true) {
    WSQ_ASSIGN_OR_RETURN(bool more, op.Next(&row));
    if (!more) break;
    out.push_back(row);
  }
  WSQ_RETURN_IF_ERROR(op.Close());
  return out;
}

TEST_F(ReqSyncOpTest, DropTuplePolicyCancelsWaitingTuples) {
  ReqPump pump;
  CallId bad = Failing(&pump, Status::Unavailable("engine down"));
  CallId good = Delayed(&pump, {Row({Value::Int(5)})});
  ExecContext ctx;
  ctx.pump = &pump;
  auto out = RunWithPolicy(
      {Row({Value::Str("lost"), Value::Pending(bad, 0)}),
       Row({Value::Str("kept"), Value::Pending(good, 0)}),
       Row({Value::Str("plain"), Value::Int(1)})},
      OnCallError::kDropTuple, &ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 2u);
  for (const Row& r : *out) {
    EXPECT_NE(r.value(0).AsString(), "lost");
    EXPECT_FALSE(r.value(1).is_null());
  }
  EXPECT_EQ(ctx.stats.dropped_tuples, 1u);
  EXPECT_EQ(ctx.stats.null_padded_tuples, 0u);
  EXPECT_EQ(ctx.stats.failed_calls, 1u);
}

TEST_F(ReqSyncOpTest, NullPadPolicyCompletesTuplesWithNulls) {
  ReqPump pump;
  CallId bad = Failing(&pump, Status::DeadlineExceeded("too slow"));
  CallId good = Delayed(&pump, {Row({Value::Int(5)})});
  ExecContext ctx;
  ctx.pump = &pump;
  auto out = RunWithPolicy(
      {Row({Value::Str("padded"), Value::Pending(bad, 0)}),
       Row({Value::Str("kept"), Value::Pending(good, 0)})},
      OnCallError::kNullPad, &ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 2u);
  for (const Row& r : *out) {
    EXPECT_FALSE(r.HasPlaceholders());
    if (r.value(0).AsString() == "padded") {
      EXPECT_TRUE(r.value(1).is_null());
    } else {
      EXPECT_EQ(r.value(1).AsInt(), 5);
    }
  }
  EXPECT_EQ(ctx.stats.null_padded_tuples, 1u);
  EXPECT_EQ(ctx.stats.dropped_tuples, 0u);
}

TEST_F(ReqSyncOpTest, NullPadKeepsOtherPendingCallsAlive) {
  // A tuple waiting on TWO calls: one fails (padded with NULL), the
  // other still completes and patches its own column.
  ReqPump pump;
  CallId bad = Failing(&pump, Status::Unavailable("down"));
  CallId good = Delayed(&pump, {Row({Value::Int(10)})}, 5000);

  StubNode stub(TwoColumnSchema());
  Schema three({Column("A", TypeId::kInt64, "t"),
                Column("B", TypeId::kInt64, "t"),
                Column("C", TypeId::kString, "t")});
  auto node = std::make_unique<ReqSyncNode>(
      std::make_unique<StubNode>(three), std::vector<size_t>{0, 1});
  node->on_call_error = OnCallError::kNullPad;
  auto child = std::make_unique<VectorOperator>(
      &node->schema(),
      std::vector<Row>{Row({Value::Pending(bad, 0), Value::Pending(good, 0),
                            Value::Str("x")})});
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(node.get(), std::move(child), &ctx);
  ASSERT_TRUE(op.Open().ok());
  std::vector<Row> out;
  Row row;
  while (true) {
    auto more = op.Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    out.push_back(row);
  }
  ASSERT_TRUE(op.Close().ok());

  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].value(0).is_null());
  EXPECT_EQ(out[0].value(1).AsInt(), 10);
  EXPECT_EQ(out[0].value(2).AsString(), "x");
  EXPECT_EQ(ctx.stats.null_padded_tuples, 1u);
}

TEST_F(ReqSyncOpTest, FailQueryPolicyDoesNotWedgeClose) {
  // Strict policy: the error aborts the drain, and Close() — which the
  // executor runs on the error path to reap outstanding calls — must
  // not block trying to re-reap the already-consumed failed call.
  ReqPump pump;
  CallId bad = Failing(&pump, Status::Unavailable("down"));
  CallId slow = Delayed(&pump, {Row({Value::Int(1)})}, 2000);

  StubNode stub(TwoColumnSchema());
  auto node = std::make_unique<ReqSyncNode>(
      std::make_unique<StubNode>(TwoColumnSchema()),
      std::vector<size_t>{1});
  auto child = std::make_unique<VectorOperator>(
      &stub.schema(),
      std::vector<Row>{Row({Value::Str("a"), Value::Pending(bad, 0)}),
                       Row({Value::Str("b"), Value::Pending(slow, 0)})});
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(node.get(), std::move(child), &ctx);
  ASSERT_TRUE(op.Open().ok());
  Row row;
  Status error;
  while (true) {
    auto more = op.Next(&row);
    if (!more.ok()) {
      error = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_EQ(error.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(op.Close().ok());  // cancels `slow`, skips consumed `bad`
  EXPECT_EQ(pump.pending_results(), 0u);
}

TEST_F(ReqSyncOpTest, CloseCancelsUnconsumedCallsWithoutWaiting) {
  // Close must not wait out a call whose answer nobody will use: (a) an
  // orphan, whose only tuple was cancelled by another call's zero-row
  // answer (§4.3, n = 0); (b) a call cut off by an early stop, as under
  // LIMIT. Each is a 2 s call that Close cancels and takes at once.
  Schema three({Column("A", TypeId::kInt64, "t"),
                Column("B", TypeId::kInt64, "t"),
                Column("C", TypeId::kString, "t")});
  for (bool early_stop : {false, true}) {
    SCOPED_TRACE(early_stop ? "early stop" : "orphan");
    ReqPump pump;
    std::vector<Row> input;
    if (early_stop) {
      CallId fast = Delayed(&pump, {Row({Value::Int(1)})}, 2000);
      CallId slow = Delayed(&pump, {Row({Value::Int(2)})}, 2000000);
      input = {Row({Value::Pending(fast, 0), Value::Int(0),
                    Value::Str("fast")}),
               Row({Value::Int(0), Value::Pending(slow, 0),
                    Value::Str("slow")})};
    } else {
      CallId fast = Delayed(&pump, {}, 2000);
      CallId slow = Delayed(&pump, {Row({Value::Int(2)})}, 2000000);
      input = {Row({Value::Pending(fast, 0), Value::Pending(slow, 0),
                    Value::Str("x")})};
    }
    auto node = std::make_unique<ReqSyncNode>(
        std::make_unique<StubNode>(three), std::vector<size_t>{0, 1});
    auto child = std::make_unique<VectorOperator>(&node->schema(),
                                                  std::move(input));
    ExecContext ctx;
    ctx.pump = &pump;
    ReqSyncOperator op(node.get(), std::move(child), &ctx);
    Stopwatch timer;
    ASSERT_TRUE(op.Open().ok());
    Row row;
    auto more = op.Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    // The orphan's tuple is gone, so the output is already complete;
    // the early stop takes the fast row and goes no further.
    ASSERT_EQ(*more, early_stop);
    if (early_stop) {
      EXPECT_EQ(row.value(2).AsString(), "fast");
    }
    ASSERT_TRUE(op.Close().ok());
    EXPECT_LT(timer.ElapsedMicros(), 500000);
    EXPECT_EQ(pump.pending_results(), 0u);
    EXPECT_EQ(pump.stats().cancelled, 1u);
  }
}

TEST_F(ReqSyncOpTest, CloseDropsQueuedCallsBeforeFreeingSlots) {
  // One slot for the destination: `slow` takes it when `fast` answers,
  // and `queued` waits behind `slow`. Both tuples die with `fast`'s
  // empty answer, so Close cancels `slow` and `queued`. Cancelling
  // `slow` first would free its slot and send `queued` to the engine
  // only to abandon it.
  ReqPump::Limits limits;
  limits.max_per_destination = 1;
  ReqPump pump(limits);
  std::atomic<int> queued_runs{0};
  CallId fast = Delayed(&pump, {}, 2000);
  CallId slow = Delayed(&pump, {Row({Value::Int(1)})}, 2000000);
  CallId queued =
      pump.Register("engine", [&queued_runs](CallCompletion done) {
        ++queued_runs;
        done(CallResult{Status::OK(), {Row({Value::Int(2)})}});
      });
  Schema three({Column("A", TypeId::kInt64, "t"),
                Column("B", TypeId::kInt64, "t"),
                Column("C", TypeId::kString, "t")});
  std::vector<Row> input = {
      Row({Value::Pending(fast, 0), Value::Pending(slow, 0),
           Value::Str("x")}),
      Row({Value::Pending(fast, 0), Value::Pending(queued, 0),
           Value::Str("y")})};
  auto node = std::make_unique<ReqSyncNode>(
      std::make_unique<StubNode>(three), std::vector<size_t>{0, 1});
  auto child =
      std::make_unique<VectorOperator>(&node->schema(), std::move(input));
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(node.get(), std::move(child), &ctx);
  ASSERT_TRUE(op.Open().ok());
  Row row;
  auto more = op.Next(&row);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_FALSE(*more);
  ASSERT_TRUE(op.Close().ok());
  EXPECT_EQ(queued_runs.load(), 0);
  EXPECT_EQ(pump.stats().cancelled, 2u);
  EXPECT_EQ(pump.pending_results(), 0u);
}

TEST_F(ReqSyncOpTest, BadFieldIndexIsInternalError) {
  ReqPump pump;
  CallId c = Delayed(&pump, {Row({Value::Int(1)})});
  auto out = RunReqSync(
      {Row({Value::Str("a"), Value::Pending(c, 5)})}, &pump);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

TEST_F(ReqSyncOpTest, ManyConcurrentCallsAllPatched) {
  ReqPump pump;
  std::vector<Row> input;
  const int kCalls = 64;
  for (int i = 0; i < kCalls; ++i) {
    CallId c = Delayed(&pump, {Row({Value::Int(i)})},
                       1000 + (i % 7) * 500);
    input.push_back(
        Row({Value::Str(StrFormat("k%d", i)), Value::Pending(c, 0)}));
  }
  auto out = RunReqSync(std::move(input), &pump);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), static_cast<size_t>(kCalls));
  std::set<int64_t> seen;
  for (const Row& r : *out) {
    EXPECT_FALSE(r.HasPlaceholders());
    seen.insert(r.value(1).AsInt());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kCalls));
}

TEST_F(ReqSyncOpTest, EmptyInput) {
  ReqPump pump;
  auto out = RunReqSync({}, &pump);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

// Wraps VectorOperator and counts how many rows have been pulled.
class CountingOperator : public Operator {
 public:
  CountingOperator(const Schema* schema, std::vector<Row> rows)
      : Operator(schema), inner_(schema, std::move(rows)) {}

  Status OpenImpl() override { return inner_.Open(); }
  Result<bool> NextImpl(Row* row) override {
    auto r = inner_.Next(row);
    if (r.ok() && *r) ++pulled_;
    return r;
  }
  Status CloseImpl() override { return inner_.Close(); }

  int pulled() const { return pulled_; }

 private:
  VectorOperator inner_;
  int pulled_ = 0;
};

TEST_F(ReqSyncOpTest, StreamingEmitsBeforeChildExhausted) {
  // Paper §4.1: "it might make sense for ReqSync to make completed
  // tuples available to its parent before exhausting execution of its
  // child subplan". Row 1's call completes synchronously; rows 2 and 3
  // are slow — the first output must arrive before they are pulled.
  ReqPump pump;
  CallId fast = pump.Register("engine", [](CallCompletion done) {
    done(CallResult{Status::OK(), {Row({Value::Int(1)})}});
  });
  CallId slow_a = Delayed(&pump, {Row({Value::Int(2)})}, 30000);
  CallId slow_b = Delayed(&pump, {Row({Value::Int(3)})}, 30000);

  StubNode stub(TwoColumnSchema());
  auto node = std::make_unique<ReqSyncNode>(
      std::make_unique<StubNode>(TwoColumnSchema()),
      std::vector<size_t>{1});
  node->streaming = true;
  auto child = std::make_unique<CountingOperator>(
      &stub.schema(),
      std::vector<Row>{Row({Value::Str("a"), Value::Pending(fast, 0)}),
                       Row({Value::Str("b"), Value::Pending(slow_a, 0)}),
                       Row({Value::Str("c"), Value::Pending(slow_b, 0)})});
  CountingOperator* counter = child.get();
  ExecContext ctx;
  ctx.pump = &pump;
  ReqSyncOperator op(node.get(), std::move(child), &ctx);
  ASSERT_TRUE(op.Open().ok());

  Row out;
  auto more = op.Next(&out);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(out.value(1).AsInt(), 1);
  // First row surfaced after pulling just one child tuple.
  EXPECT_EQ(counter->pulled(), 1);

  // The remaining tuples still arrive (and the child fully drains).
  std::set<int64_t> rest;
  while (*(more = op.Next(&out))) {
    rest.insert(out.value(1).AsInt());
  }
  EXPECT_EQ(rest, (std::set<int64_t>{2, 3}));
  EXPECT_EQ(counter->pulled(), 3);
  ASSERT_TRUE(op.Close().ok());
}

TEST_F(ReqSyncOpTest, StreamingMatchesBufferedResults) {
  for (bool streaming : {false, true}) {
    ReqPump pump;
    std::vector<Row> input;
    for (int i = 0; i < 20; ++i) {
      CallId c = Delayed(&pump, {Row({Value::Int(i)})},
                         500 + (i % 5) * 700);
      input.push_back(
          Row({Value::Str(StrFormat("k%d", i)), Value::Pending(c, 0)}));
    }
    StubNode stub(TwoColumnSchema());
    auto node = std::make_unique<ReqSyncNode>(
        std::make_unique<StubNode>(TwoColumnSchema()),
        std::vector<size_t>{1});
    node->streaming = streaming;
    auto child = std::make_unique<VectorOperator>(&stub.schema(),
                                                  std::move(input));
    ExecContext ctx;
    ctx.pump = &pump;
    ReqSyncOperator op(node.get(), std::move(child), &ctx);
    ASSERT_TRUE(op.Open().ok());
    std::set<int64_t> seen;
    Row out;
    while (true) {
      auto more = op.Next(&out);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      seen.insert(out.value(1).AsInt());
    }
    ASSERT_TRUE(op.Close().ok());
    EXPECT_EQ(seen.size(), 20u) << "streaming=" << streaming;
  }
}

}  // namespace
}  // namespace wsq
