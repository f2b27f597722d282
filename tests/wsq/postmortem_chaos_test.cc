// Postmortem chaos sweep (ctest -L chaos, including the TSan job):
// under a seeded fault plan every query that fails or returns degraded
// data must produce exactly one postmortem record that names the
// responsible destination, and fault-free steady state must produce
// zero postmortems with a byte-stable metrics export. A statement
// that is also slow still makes one query-log record, rendered both
// ways.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

struct Capture {
  Mutex mu;
  std::vector<QueryRecord> records;

  QueryLog::Sink sink() {
    return [this](const QueryRecord& r) {
      MutexLock lock(&mu);
      records.push_back(r);
    };
  }
  std::vector<QueryRecord> take() {
    MutexLock lock(&mu);
    return records;
  }
};

/// The value of the series `series` (name plus labels, as exported) in
/// a Prometheus text export; nullopt when the export has no such line.
std::optional<std::string> SeriesValue(const std::string& text,
                                       const std::string& series) {
  const std::string line_start = "\n" + series + " ";
  const std::string padded = "\n" + text;
  size_t at = padded.find(line_start);
  if (at == std::string::npos) return std::nullopt;
  at += line_start.size();
  return padded.substr(at, padded.find('\n', at) - at);
}

/// True when the export has a series whose name and labels start with
/// `prefix`.
bool HasSeries(const std::string& text, const std::string& prefix) {
  return ("\n" + text).find("\n" + prefix) != std::string::npos;
}

DemoOptions BaseOptions() {
  DemoOptions opt;
  opt.corpus.num_documents = 600;
  opt.corpus.vocab_size = 400;
  opt.latency = LatencyModel::Instant();
  opt.search_shards = 3;
  // No replicas: a failed shard leg must stay failed (hedging to a
  // fault-free replica would mask the fault and the postmortem).
  opt.shard_replicas = false;
  return opt;
}

TEST(PostmortemChaosTest, FaultFreeLoadEmitsNothingAndExportIsStable) {
  Capture capture;
  DemoOptions opt = BaseOptions();
  opt.query_log_sink = capture.sink();
  DemoEnv env(opt);
  MetricsRegistry* registry = MetricsRegistry::Global();
  const std::string before = registry->ExportPrometheusText();

  const char* queries[] = {
      "SELECT Name, Capital FROM States ORDER BY Name LIMIT 5",
      "SELECT Count FROM WebCount WHERE T1 = 'colorado'",
      "SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1 "
      "ORDER BY Count DESC, Name",
  };
  for (int round = 0; round < 2; ++round) {
    for (const char* sql : queries) {
      auto r = env.Run(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
      EXPECT_EQ(r->stats.partial_results, 0u) << sql;
      EXPECT_EQ(r->stats.degraded_tuples(), 0u) << sql;
    }
  }

  EXPECT_TRUE(capture.take().empty());
  EXPECT_EQ(env.db().query_log()->emitted_total(), 0u);
  EXPECT_EQ(env.db().query_log()->suppressed_total(), 0u);
  EXPECT_EQ(env.db().query_log()->last(), nullptr);

  // Quiesce every async layer, then the live-state export must be
  // byte-stable: identical state renders identically. The engines may
  // still hold the losers of the database pump's hedges.
  env.shard_cluster()->Quiesce();
  env.google_service().Quiesce();
  env.db().pump()->Drain();
  const std::string once = registry->ExportPrometheusText();
  EXPECT_EQ(once, registry->ExportPrometheusText());
  EXPECT_EQ(registry->ExportJson(), registry->ExportJson());

  // The export covers the live deployment: database, shard cluster and
  // its breakers.
  for (const char* series :
       {"wsq_admission_admitted_total", "wsq_admission_queued_peak",
        "wsq_mem_used_bytes{budget=\"db\",database=",
        "wsq_mem_used_bytes{budget=\"process\"}",
        "wsq_mem_peak_used_bytes{budget=\"db\",database=",
        "wsq_buffer_pool_resident_pages", "wsq_spill_active_files",
        "wsq_shard_fanouts_total{", "wsq_shard_healthy{",
        "wsq_circuit_open{", "wsq_circuit_half_open{",
        "wsq_circuit_consecutive_failures{", "wsq_reqpump_in_flight"}) {
    EXPECT_TRUE(HasSeries(once, series)) << series << "\n" << once;
  }
  // The postmortem counters are exported from start-up (at 0 in a fresh
  // process, where this case runs first), and the load added nothing.
  for (const char* series :
       {"wsq_fr_postmortems_total", "wsq_fr_postmortems_suppressed_total"}) {
    std::optional<std::string> start = SeriesValue(before, series);
    ASSERT_TRUE(start.has_value()) << series << "\n" << before;
    EXPECT_EQ(SeriesValue(once, series), start) << series;
  }
}

TEST(PostmortemChaosTest, EveryBadEndingYieldsExactlyOnePostmortem) {
  Capture capture;
  DemoOptions opt = BaseOptions();
  opt.query_log_sink = capture.sink();
  // Shard 0 hard-fails every request it sees, deterministically.
  opt.shard_faults.resize(1);
  opt.shard_faults[0].permanent_rate = 1.0;
  opt.shard_faults[0].seed = 7;
  DemoEnv env(opt);

  std::vector<uint64_t> expected_bad_ids;

  // Best-effort queries survive the dark shard but must confess: OK +
  // partial stats => one degraded postmortem each.
  for (const char* term : {"colorado", "utah", "database"}) {
    WsqDatabase::ExecOptions exec;
    exec.shard.policy = ShardPolicy::kBestEffort;
    auto r = env.db().Execute(
        std::string("SELECT Count FROM WebCount WHERE T1 = '") + term +
            "'",
        exec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->stats.partial_results, 0u) << term;
    EXPECT_GT(r->stats.degraded_shards, 0u) << term;
    expected_bad_ids.push_back(r->stats.query_id);
  }

  // Default (fail-unless-complete) policy: the dark shard fails the
  // whole query => one failure postmortem each.
  size_t failed_queries = 0;
  for (const char* term : {"systems", "query"}) {
    auto r = env.db().Execute(
        std::string("SELECT Count FROM WebCount WHERE T1 = '") + term +
        "'");
    EXPECT_FALSE(r.ok()) << term;
    if (!r.ok()) ++failed_queries;
  }

  // Healthy statements emit nothing even in a faulted deployment.
  ASSERT_TRUE(
      env.Run("SELECT Name FROM States ORDER BY Name LIMIT 3").ok());

  std::vector<QueryRecord> records = capture.take();
  ASSERT_EQ(records.size(), expected_bad_ids.size() + failed_queries);
  EXPECT_EQ(env.db().query_log()->emitted_total(), records.size());

  size_t degraded_seen = 0;
  size_t failed_seen = 0;
  for (const QueryRecord& pm : records) {
    EXPECT_TRUE(pm.postmortem);
    EXPECT_NE(pm.stats.query_id, 0u);
    EXPECT_FALSE(pm.sql.empty());
    EXPECT_FALSE(pm.verdict().empty());
    EXPECT_FALSE(pm.cause().empty());
    if (pm.status.ok()) {
      ++degraded_seen;
      // Exactly one degraded postmortem per best-effort query, id
      // matched — never two for the same query.
      size_t matches = 0;
      for (uint64_t id : expected_bad_ids) {
        if (id == pm.stats.query_id) ++matches;
      }
      EXPECT_EQ(matches, 1u) << "qid " << pm.stats.query_id;
      EXPECT_GT(pm.stats.partial_results, 0u);
      EXPECT_NE(pm.cause().find("shard(s) missing"), std::string::npos)
          << pm.cause();
    } else {
      ++failed_seen;
      EXPECT_NE(pm.verdict(), "OK");
      EXPECT_GT(pm.stats.failed_calls, 0u);
    }
    // The flight-recorder slice names the responsible destination: the
    // query's external calls (and for failures, the failing call or
    // quorum verdict) are in the record.
    bool named_destination = false;
    for (const FrEvent& e : pm.events) {
      if ((e.type == FrEventType::kCallFailed ||
           e.type == FrEventType::kCallComplete ||
           e.type == FrEventType::kQuorumFail ||
           e.type == FrEventType::kFanout) &&
          !e.destination.empty()) {
        named_destination = true;
      }
    }
    EXPECT_TRUE(named_destination)
        << "postmortem for qid " << pm.stats.query_id
        << " names no destination:\n"
        << pm.ToText();
  }
  EXPECT_EQ(degraded_seen, expected_bad_ids.size());
  EXPECT_EQ(failed_seen, failed_queries);

  // \postmortem last surfaces the most recent bad ending.
  auto last = env.db().query_log()->last();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->stats.query_id, records.back().stats.query_id);
}

TEST(PostmortemChaosTest, RateLimitSuppressesButTracksEveryBadEnding) {
  Capture capture;
  DemoOptions opt = BaseOptions();
  opt.query_log_sink = capture.sink();
  // One emitted postmortem per hour: the sweep below emits exactly one
  // record and suppresses the rest, while last() keeps tracking.
  opt.postmortem_min_interval_micros = 3'600'000'000LL;
  opt.shard_faults.resize(1);
  opt.shard_faults[0].permanent_rate = 1.0;
  DemoEnv env(opt);

  WsqDatabase::ExecOptions exec;
  exec.shard.policy = ShardPolicy::kBestEffort;
  uint64_t last_id = 0;
  for (const char* term : {"colorado", "utah", "database"}) {
    auto r = env.db().Execute(
        std::string("SELECT Count FROM WebCount WHERE T1 = '") + term +
            "'",
        exec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    last_id = r->stats.query_id;
  }

  EXPECT_EQ(capture.take().size(), 1u);
  EXPECT_EQ(env.db().query_log()->emitted_total(), 1u);
  EXPECT_EQ(env.db().query_log()->suppressed_total(), 2u);
  auto last = env.db().query_log()->last();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->stats.query_id, last_id);
}

DemoOptions DarkShardOptions(Capture* capture) {
  DemoOptions opt = BaseOptions();
  opt.query_log_sink = capture->sink();
  opt.shard_faults.resize(1);
  opt.shard_faults[0].permanent_rate = 1.0;
  opt.shard_faults[0].seed = 7;
  return opt;
}

TEST(PostmortemChaosTest, SlowFailedStatementIsOneRecordRenderedBothWays) {
  Capture capture;
  DemoEnv env(DarkShardOptions(&capture));
  WsqDatabase::ExecOptions exec;
  exec.slow_query_micros = 1;  // every statement is slow
  auto r = env.db().Execute(
      "SELECT Count FROM WebCount WHERE T1 = 'systems'", exec);
  ASSERT_FALSE(r.ok());

  std::vector<QueryRecord> records = capture.take();
  ASSERT_EQ(records.size(), 1u);
  const QueryRecord& record = records[0];
  EXPECT_GT(record.slow_threshold_micros, 0);
  EXPECT_TRUE(record.postmortem);
  EXPECT_GT(record.stats.external_calls, 0u);
  EXPECT_GT(record.stats.failed_calls, 0u);
  EXPECT_EQ(env.db().query_log()->slow_total(), 1u);
  EXPECT_EQ(env.db().query_log()->emitted_total(), 1u);

  // Both renderings show the same id and call counts.
  const std::string line = record.ToLine();
  const std::string text = record.ToText();
  const std::string header = text.substr(0, text.find('\n'));
  for (const std::string& field :
       {StrFormat(" id=%llu ", (unsigned long long)record.stats.query_id),
        StrFormat(" external_calls=%llu ",
                  (unsigned long long)record.stats.external_calls),
        StrFormat(" failed_calls=%llu ",
                  (unsigned long long)record.stats.failed_calls)}) {
    EXPECT_NE(line.find(field), std::string::npos) << field << "\n" << line;
    EXPECT_NE(header.find(field), std::string::npos)
        << field << "\n" << header;
  }
}

TEST(PostmortemChaosTest, FastDegradedIsPostmortemOnlyAndHealthyIsSilent) {
  Capture capture;
  DemoEnv env(DarkShardOptions(&capture));
  WsqDatabase::ExecOptions exec;
  exec.slow_query_micros = 3'600'000'000LL;  // nothing here is slow
  exec.shard.policy = ShardPolicy::kBestEffort;
  auto degraded = env.db().Execute(
      "SELECT Count FROM WebCount WHERE T1 = 'colorado'", exec);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_GT(degraded->stats.partial_results, 0u);

  std::vector<QueryRecord> records = capture.take();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].postmortem);
  EXPECT_EQ(records[0].slow_threshold_micros, 0);
  EXPECT_EQ(records[0].stats.query_id, degraded->stats.query_id);

  // A healthy fast statement reaches no sink at all.
  auto healthy = env.db().Execute(
      "SELECT Name FROM States ORDER BY Name LIMIT 3", exec);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(capture.take().size(), 1u);
  EXPECT_EQ(env.db().query_log()->slow_total(), 0u);
  EXPECT_EQ(env.db().query_log()->last()->stats.query_id,
            degraded->stats.query_id);
}

}  // namespace
}  // namespace wsq
