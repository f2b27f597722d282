// End-to-end EXPLAIN ANALYZE and tracing over the demo environment,
// including the acceptance property from the paper (§4/Figure 4):
// under asynchronous iteration the time a ReqSync is blocked on
// external calls approaches the MAX of the call latencies, not their
// SUM. Also checks the Prometheus dump exposes the external-call
// latency histogram.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/macros.h"
#include "obs/metrics.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

constexpr int64_t kLatencyMicros = 20'000;

// One WSQ query joining the 50-row States table against WebCount: 50
// external calls, all issued up front by the async rewrite.
constexpr char kWsqQuery[] =
    "SELECT Name, Count FROM States, WebCount WHERE Name = T1 "
    "ORDER BY Count DESC LIMIT 5";

DemoEnv& Env() {
  static DemoEnv* const kEnv = [] {
    DemoOptions opt;
    opt.corpus.num_documents = 1200;
    opt.latency = LatencyModel::Fixed(kLatencyMicros);
    return new DemoEnv(opt);
  }();
  return *kEnv;
}

const PlanProfileNode* FindNode(const PlanProfileNode& node,
                                const std::string& prefix) {
  if (node.label.compare(0, prefix.size(), prefix) == 0) return &node;
  for (const PlanProfileNode& child : node.children) {
    if (const PlanProfileNode* hit = FindNode(child, prefix)) return hit;
  }
  return nullptr;
}

TEST(ExplainAnalyzeTest, BlockedTimeIsMaxNotSumOfCallLatencies) {
  WsqDatabase::ExecOptions options;
  options.analyze = true;
  options.async_iteration = true;
  auto r = Env().db().Execute(kWsqQuery, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->profile.has_value());

  const PlanProfileNode* sync = FindNode(*r->profile, "ReqSync");
  ASSERT_NE(sync, nullptr) << r->profile->ToString();

  uint64_t calls = r->profile->TotalCallsIssued();
  ASSERT_GE(calls, 50u) << r->profile->ToString();
  int64_t blocked = r->profile->TotalBlockedMicros();
  int64_t sum_of_latencies =
      static_cast<int64_t>(calls) * kLatencyMicros;

  // Blocked at least one full round-trip (the max with fixed latency)…
  EXPECT_GE(blocked, kLatencyMicros / 2) << r->profile->ToString();
  // …but nowhere near the sum: with 50 concurrent calls the paper's
  // max-of-latencies behavior leaves blocked time a small multiple of
  // one latency. A sequential plan would block for the whole sum.
  EXPECT_LT(blocked, sum_of_latencies / 4) << r->profile->ToString();

  // The profile carries per-operator row counts mirroring the result.
  EXPECT_EQ(r->profile->profile.rows_out, r->result.rows.size());

  // The annotated rendering names the blocked time.
  std::string text = r->profile->ToString();
  EXPECT_NE(text.find("blocked="), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, SqlStatementReturnsAnnotatedPlan) {
  auto r = Env().db().Execute(std::string("EXPLAIN ANALYZE ") + kWsqQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.size(), 1u);
  ASSERT_TRUE(r->result.rows[0].value(0).is_string());
  const std::string& text = r->result.rows[0].value(0).AsString();
  // Operator annotations plus the one-line stats footer.
  EXPECT_NE(text.find("ReqSync"), std::string::npos) << text;
  EXPECT_NE(text.find("blocked="), std::string::npos) << text;
  EXPECT_NE(text.find("mode=async"), std::string::npos) << text;
  EXPECT_NE(text.find("external_calls="), std::string::npos) << text;

  // EXPLAIN ANALYZE SYNC runs the sequential plan: no ReqSync.
  auto sync = Env().db().Execute(
      std::string("EXPLAIN ANALYZE SYNC ") + kWsqQuery);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  const std::string& sync_text =
      sync->result.rows[0].value(0).AsString();
  EXPECT_EQ(sync_text.find("ReqSync"), std::string::npos) << sync_text;
  EXPECT_NE(sync_text.find("mode=sync"), std::string::npos) << sync_text;
}

TEST(ExplainAnalyzeTest, PlainExplainStillDoesNotExecute) {
  uint64_t calls_before = Env().db().pump()->stats().registered;
  auto r = Env().db().Execute(std::string("EXPLAIN ASYNC ") + kWsqQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Env().db().pump()->stats().registered, calls_before);
}

TEST(ExplainAnalyzeTest, TraceCapturesSpansAcrossLayers) {
  WsqDatabase::ExecOptions options;
  options.trace = true;
  options.async_iteration = true;
  auto r = Env().db().Execute(kWsqQuery, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->trace.has_value());
  ASSERT_FALSE(r->trace->spans.empty());

  bool saw_query = false, saw_op = false, saw_reqpump = false,
       saw_reqsync = false;
  for (const TraceSpan& span : r->trace->spans) {
    if (span.category == "query") saw_query = true;
    if (span.category == "op") saw_op = true;
    if (span.category == "reqpump") saw_reqpump = true;
    if (span.category == "reqsync") saw_reqsync = true;
  }
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_op);
  EXPECT_TRUE(saw_reqpump);
  EXPECT_TRUE(saw_reqsync);

  // Span budgets truncate instead of growing without bound.
  WsqDatabase::ExecOptions tight = options;
  tight.trace_max_spans = 8;
  auto small = Env().db().Execute(kWsqQuery, tight);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_TRUE(small->trace.has_value());
  EXPECT_LE(small->trace->spans.size(), 8u);
  EXPECT_GT(small->trace->dropped_spans, 0u);
}

TEST(ExplainAnalyzeTest, PrometheusDumpHasExternalCallLatency) {
  // Ensure at least one query has run through the pump.
  WSQ_IGNORE_STATUS(Env().Run(kWsqQuery).status());

  std::string text =
      MetricsRegistry::Global()->ExportPrometheusText();
  EXPECT_NE(text.find("wsq_external_call_latency_micros{"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("wsq_external_call_latency_micros_count"),
            std::string::npos);
  EXPECT_NE(text.find("wsq_queries_total"), std::string::npos);

  // Parseability: every non-comment line is `name[{labels}] value`.
  size_t pos = 0;
  int series = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    // Value parses as a double.
    EXPECT_NO_THROW({
      size_t used = 0;
      (void)std::stod(line.substr(space + 1), &used);
    }) << line;
    ++series;
  }
  EXPECT_GT(series, 10);
}

TEST(ExplainAnalyzeTest, SlowQueriesFireFromExecute) {
  // Threshold 1 us at the database level: every statement is "slow".
  // The sink must see the query id and SQL that Execute stamped.
  std::vector<QueryRecord> seen;
  WsqDatabase::Options options;
  options.slow_query_micros = 1;
  options.query_log_sink = [&seen](const QueryRecord& r) {
    seen.push_back(r);
  };
  WsqDatabase db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto r = db.Execute("SELECT x FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].stats.query_id, r->stats.query_id);
  EXPECT_GT(r->stats.query_id, seen[0].stats.query_id);
  EXPECT_EQ(seen[1].sql, "SELECT x FROM t");
  EXPECT_TRUE(seen[1].status.ok());
  EXPECT_GT(seen[1].slow_threshold_micros, 0);

  // Per-query override 0 silences the database default.
  WsqDatabase::ExecOptions quiet;
  quiet.slow_query_micros = 0;
  ASSERT_TRUE(db.Execute("SELECT x FROM t", quiet).ok());
  EXPECT_EQ(seen.size(), 2u);

  // Failed statements are logged with their error, in the same call as
  // their postmortem.
  WSQ_IGNORE_STATUS(db.Execute("SELECT nope FROM missing").status());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_FALSE(seen[2].status.ok());
  EXPECT_FALSE(seen[2].status.message().empty());
  EXPECT_GT(seen[2].slow_threshold_micros, 0);
  EXPECT_TRUE(seen[2].postmortem);
}

}  // namespace
}  // namespace wsq
