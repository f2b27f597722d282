// Query log: one record per slow or badly ending statement, rendered as
// the slow-query line and the postmortem block. Covers threshold
// semantics (database default, per-query override, disabled), the
// postmortem rate limit and event bound, the injectable clock, and both
// renderings, with the postmortem block pinned byte for byte.

#include "obs/query_log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wsq/database.h"

namespace wsq {
namespace {

constexpr char kSql[] =
    "SELECT Name, Count FROM States, WebCount WHERE Name = T1";

QueryStats MakeStats(uint64_t query_id = 42) {
  QueryStats s;
  s.query_id = query_id;
  s.external_calls = 50;
  s.async_iteration = true;
  return s;
}

QueryRecord MakeRecord(int64_t elapsed_micros) {
  QueryRecord r;
  r.sql = kSql;
  r.rows = 5;
  r.elapsed_micros = elapsed_micros;
  r.stats = MakeStats();
  return r;
}

struct Capture {
  std::vector<QueryRecord> seen;
  QueryLog::Sink sink() {
    return [this](const QueryRecord& r) { seen.push_back(r); };
  }
};

TEST(QueryLogTest, SlowAtOrAboveThresholdOnly) {
  Capture capture;
  QueryLog log(/*slow_query_micros=*/1000, /*interval=*/0, capture.sink());
  EXPECT_FALSE(log.OnQueryEnd(kSql, Status::OK(), 5, 999, MakeStats()));
  // Inclusive threshold.
  EXPECT_TRUE(log.OnQueryEnd(kSql, Status::OK(), 5, 1000, MakeStats()));
  EXPECT_TRUE(log.OnQueryEnd(kSql, Status::OK(), 5, 5000, MakeStats()));
  ASSERT_EQ(capture.seen.size(), 2u);
  EXPECT_EQ(log.slow_total(), 2u);
  // The effective threshold is stamped into the emitted record.
  EXPECT_EQ(capture.seen[0].slow_threshold_micros, 1000);
  EXPECT_EQ(capture.seen[0].elapsed_micros, 1000);
  // A healthy slow statement is a slow-query line only.
  EXPECT_FALSE(capture.seen[0].postmortem);
  EXPECT_TRUE(capture.seen[0].events.empty());
  EXPECT_EQ(log.emitted_total(), 0u);
  EXPECT_EQ(log.last(), nullptr);
}

TEST(QueryLogTest, DisabledByDefaultAndByZeroOverride) {
  Capture capture;
  QueryLog off(/*slow_query_micros=*/0, /*interval=*/0, capture.sink());
  EXPECT_FALSE(off.OnQueryEnd(kSql, Status::OK(), 5, 1'000'000, MakeStats()));

  QueryLog on(/*slow_query_micros=*/100, /*interval=*/0, capture.sink());
  // Per-query override 0 disables even though the default would fire.
  EXPECT_FALSE(on.OnQueryEnd(kSql, Status::OK(), 5, 1'000'000, MakeStats(),
                             /*slow_query_override=*/0));
  EXPECT_TRUE(capture.seen.empty());
}

TEST(QueryLogTest, PerQueryOverrideReplacesDefault) {
  Capture capture;
  QueryLog log(/*slow_query_micros=*/1'000'000, /*interval=*/0,
               capture.sink());
  // Tighter override catches what the default would let pass...
  EXPECT_TRUE(log.OnQueryEnd(kSql, Status::OK(), 5, 600, MakeStats(),
                             /*slow_query_override=*/500));
  ASSERT_EQ(capture.seen.size(), 1u);
  EXPECT_EQ(capture.seen[0].slow_threshold_micros, 500);
  // ...and the configured default stays authoritative with override < 0.
  EXPECT_FALSE(log.OnQueryEnd(kSql, Status::OK(), 5, 600, MakeStats(),
                              /*slow_query_override=*/-1));
}

TEST(QueryLogTest, FakeClockDrivesNowMicros) {
  int64_t now = 10'000;
  QueryLog log(/*slow_query_micros=*/100, /*interval=*/0, /*sink=*/nullptr,
               /*clock=*/[&now] { return now; });
  int64_t start = log.NowMicros();
  now += 750;  // the "query" runs for 750 fake microseconds
  int64_t elapsed = log.NowMicros() - start;
  EXPECT_EQ(elapsed, 750);

  Capture capture;
  QueryLog capturing(/*slow_query_micros=*/100, /*interval=*/0,
                     capture.sink(), [&now] { return now; });
  EXPECT_TRUE(
      capturing.OnQueryEnd(kSql, Status::OK(), 5, elapsed, MakeStats()));
  ASSERT_EQ(capture.seen.size(), 1u);
  EXPECT_EQ(capture.seen[0].elapsed_micros, 750);
}

TEST(QueryLogTest, FastHealthyStatementBuildsNothing) {
  Capture capture;
  QueryLog log(/*slow_query_micros=*/1000, /*interval=*/0, capture.sink());
  EXPECT_FALSE(log.OnQueryEnd(kSql, Status::OK(), 5, 10, MakeStats()));
  EXPECT_TRUE(capture.seen.empty());
  EXPECT_EQ(log.last(), nullptr);
  EXPECT_EQ(log.slow_total() + log.emitted_total() + log.suppressed_total(),
            0u);
}

TEST(QueryLogTest, SlowFailedStatementIsOneSinkCallMarkedBothWays) {
  Capture capture;
  QueryLog log(/*slow_query_micros=*/100, /*interval=*/0, capture.sink());
  QueryStats stats = MakeStats(995001);
  stats.failed_calls = 3;
  EXPECT_TRUE(log.OnQueryEnd(kSql, Status::Unavailable("engine down"), 0,
                             500, stats));
  ASSERT_EQ(capture.seen.size(), 1u);
  const QueryRecord& r = capture.seen[0];
  EXPECT_EQ(r.slow_threshold_micros, 100);
  EXPECT_TRUE(r.postmortem);
  EXPECT_EQ(log.slow_total(), 1u);
  EXPECT_EQ(log.emitted_total(), 1u);
  ASSERT_NE(log.last(), nullptr);
  EXPECT_EQ(log.last()->stats.query_id, 995001u);
}

TEST(QueryLogTest, DefaultSinkWritesLineThenBlockToStderr) {
  QueryLog log(/*slow_query_micros=*/100);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(log.OnQueryEnd(kSql, Status::Unavailable("engine down"), 0,
                             500, MakeStats(995002)));
  std::string err = testing::internal::GetCapturedStderr();
  auto last = log.last();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(err, last->ToLine() + "\n" + last->ToText() + "\n");
}

TEST(QueryLogTest, ToLineRendersKeyValuePairsWithSqlLast) {
  QueryRecord r = MakeRecord(1'234'567);
  r.slow_threshold_micros = 1'000'000;
  r.stats.failed_calls = 2;
  r.stats.dropped_tuples = 3;
  std::string line = r.ToLine();
  EXPECT_EQ(line.find("slow_query id=42 elapsed=1234567us "
                      "threshold=1000000us mode=async rows=5"),
            0u)
      << line;
  EXPECT_NE(line.find("external_calls=50"), std::string::npos) << line;
  EXPECT_NE(line.find("failed_calls=2"), std::string::npos) << line;
  EXPECT_NE(line.find("degraded_tuples=3"), std::string::npos) << line;
  // sql is the last field (the only one that may contain spaces).
  size_t sql_pos = line.find("sql=\"");
  ASSERT_NE(sql_pos, std::string::npos) << line;
  EXPECT_GT(sql_pos, line.find("rows=")) << line;

  // Newlines in the statement are flattened to keep the record on one
  // line.
  QueryRecord multi = MakeRecord(10);
  multi.sql = "SELECT *\nFROM t";
  EXPECT_EQ(multi.ToLine().find('\n'), std::string::npos);

  // Failed queries carry the code name, and the message as a cause.
  QueryRecord failed = MakeRecord(10);
  failed.status = Status::DeadlineExceeded("query deadline exceeded");
  EXPECT_NE(failed.ToLine().find(
                " error=DeadlineExceeded cause=\"query deadline exceeded\" "
                "sql=\""),
            std::string::npos)
      << failed.ToLine();
}

TEST(QueryLogTest, ToLineCarriesDegradationAndMemoryFields) {
  QueryRecord r = MakeRecord(1'000);
  r.stats.partial_results = 2;
  r.stats.degraded_shards = 3;
  r.stats.spilled_bytes = 4096;
  r.stats.spill_runs = 2;
  r.stats.peak_memory_bytes = 1 << 20;
  std::string line = r.ToLine();
  EXPECT_NE(line.find("partial_results=2"), std::string::npos) << line;
  EXPECT_NE(line.find("degraded_shards=3"), std::string::npos) << line;
  EXPECT_NE(line.find("spill_runs=2"), std::string::npos) << line;
  EXPECT_NE(line.find("spilled_bytes=4096"), std::string::npos) << line;
  EXPECT_NE(line.find("peak_memory_bytes=1048576"), std::string::npos)
      << line;
  // All structured fields still precede the free-form sql.
  EXPECT_LT(line.find("peak_memory_bytes="), line.find("sql=\"")) << line;

  // A clean query omits every degradation field (lines stay short).
  std::string clean = MakeRecord(1'000).ToLine();
  EXPECT_EQ(clean.find("partial_results="), std::string::npos) << clean;
  EXPECT_EQ(clean.find("spill_runs="), std::string::npos) << clean;
  EXPECT_EQ(clean.find("peak_memory_bytes="), std::string::npos) << clean;
}

// True when every token of `prefix` is `slow_query`, a key=value pair,
// or a quoted value (key="..." or "..."; quotes may span spaces).
bool AllTokensStructured(const std::string& prefix, std::string* bad) {
  constexpr size_t npos = std::string::npos;
  size_t i = 0;
  while (i < prefix.size()) {
    if (prefix[i] == ' ') {
      ++i;
      continue;
    }
    size_t end = prefix.find(' ', i);
    if (end == npos) end = prefix.size();
    size_t eq = prefix.find('=', i);
    bool has_key = eq != npos && eq > i && eq < end;
    size_t open = prefix[i] == '"' ? i
                  : has_key && prefix[eq + 1] == '"' ? eq + 1
                                                     : npos;
    if (open != npos) {
      size_t close = prefix.find('"', open + 1);
      if (close == npos ||
          (close + 1 < prefix.size() && prefix[close + 1] != ' ')) {
        *bad = prefix.substr(i);
        return false;
      }
      i = close + 1;
      continue;
    }
    std::string token = prefix.substr(i, end - i);
    if (token != "slow_query" && !(has_key && eq + 1 < end)) {
      *bad = token;
      return false;
    }
    i = end;
  }
  return true;
}

TEST(QueryLogTest, FailedExecuteSlowLineIsSplittableBeforeSql) {
  // The line's contract: everything before ` sql="` splits on spaces
  // into structured tokens. A unit after a space (`elapsed=67 us`) or
  // an unquoted message (`error=BindError: no such table ...`) breaks
  // it.
  std::string bad;
  EXPECT_FALSE(AllTokensStructured(
      "slow_query id=9 elapsed=67 us threshold=1 us mode=async rows=0 "
      "error=BindError: no such table or virtual table: missing",
      &bad));

  std::vector<std::string> lines;
  WsqDatabase::Options options;
  options.slow_query_micros = 1;
  options.query_log_sink = [&lines](const QueryRecord& r) {
    if (r.slow_threshold_micros > 0) lines.push_back(r.ToLine());
  };
  WsqDatabase db(options);
  auto r = db.Execute("SELECT nope FROM missing");
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  size_t sql = line.find(" sql=\"");
  ASSERT_NE(sql, std::string::npos) << line;
  EXPECT_TRUE(AllTokensStructured(line.substr(0, sql), &bad))
      << "unstructured token `" << bad << "` in: " << line;
  EXPECT_NE(line.find(" error=BindError cause=\""), std::string::npos)
      << line;
}

TEST(QueryLogTest, ToTextRendersHeaderAndIndentedEvents) {
  QueryRecord pm;
  pm.sql = "SELECT *\nFROM t";
  pm.status = Status::DeadlineExceeded("deadline of 50000us exceeded");
  pm.elapsed_micros = 51000;
  pm.stats.query_id = 7;
  pm.stats.partial_results = 1;
  pm.stats.dropped_tuples = 2;
  pm.stats.failed_calls = 1;
  pm.stats.spill_runs = 1;
  pm.stats.spilled_bytes = 8192;
  pm.stats.peak_memory_bytes = 65536;
  FrEvent e1;
  e1.timestamp_micros = 1000;
  e1.type = FrEventType::kCallDispatch;
  e1.query_id = 7;
  e1.destination = "AltaVista";
  FrEvent e2;
  e2.timestamp_micros = 1400;
  e2.type = FrEventType::kCallTimeout;
  e2.query_id = 7;
  e2.destination = "AltaVista";
  pm.events = {e1, e2};
  pm.events_dropped = 3;

  std::string text = pm.ToText();
  EXPECT_NE(text.find("postmortem id=7 verdict=DeadlineExceeded"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cause=\"deadline of 50000us exceeded\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("partial=1"), std::string::npos) << text;
  EXPECT_NE(text.find("spill_runs=1 spilled_bytes=8192"), std::string::npos)
      << text;
  EXPECT_NE(text.find("peak_memory_bytes=65536"), std::string::npos) << text;
  // The multi-line SQL is flattened into the header.
  EXPECT_NE(text.find("sql=\"SELECT * FROM t\""), std::string::npos) << text;
  // Elision note + events indented, timestamps relative to the first.
  EXPECT_NE(text.find("\n  ... 3 earlier events elided"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  t=+0us call_dispatch qid=7 dest=AltaVista"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  t=+400us call_timeout qid=7 dest=AltaVista"),
            std::string::npos)
      << text;
}

FrEvent MakeEvent(int64_t timestamp, FrEventType type, uint64_t qid,
                  const char* destination = "", const char* cause = "",
                  int64_t a = 0, int64_t b = 0) {
  FrEvent e;
  e.timestamp_micros = timestamp;
  e.type = type;
  e.query_id = qid;
  e.destination = destination;
  e.cause = cause;
  e.a = a;
  e.b = b;
  return e;
}

// Golden renders, captured from the postmortem renderer that predates
// QueryRecord, given the same endings: the block is a stable, greppable
// format.
TEST(QueryLogTest, PostmortemMatchesGoldenRender) {
  QueryRecord failed;
  failed.sql = "SELECT Name, Count\nFROM States, WebCount WHERE Name = T1";
  failed.status = Status::DeadlineExceeded("query deadline exceeded");
  failed.elapsed_micros = 51234;
  failed.stats.query_id = 4711;
  failed.stats.partial_results = 2;
  failed.stats.dropped_tuples = 3;
  failed.stats.null_padded_tuples = 1;
  failed.stats.external_calls = 50;
  failed.stats.failed_calls = 4;
  failed.stats.spilled_bytes = 8192;
  failed.stats.spill_runs = 2;
  failed.stats.peak_memory_bytes = 65536;
  failed.events = {
      MakeEvent(1000, FrEventType::kQueryBegin, 4711),
      MakeEvent(1012, FrEventType::kFanout, 4711, "AltaVista", "", 3),
      MakeEvent(1210, FrEventType::kCallFailed, 4711, "AltaVista.shard0",
                "Unavailable", 17, -2),
      MakeEvent(52234, FrEventType::kQueryEnd, 4711, "", "DeadlineExceeded",
                51234),
  };
  failed.events_dropped = 5;
  EXPECT_EQ(failed.ToText(),
            "postmortem id=4711 verdict=DeadlineExceeded "
            "cause=\"query deadline exceeded\" elapsed=51234us partial=1 "
            "degraded_tuples=4 external_calls=50 failed_calls=4 "
            "spill_runs=2 spilled_bytes=8192 peak_memory_bytes=65536 "
            "sql=\"SELECT Name, Count FROM States, WebCount WHERE Name = "
            "T1\"\n"
            "  ... 5 earlier events elided\n"
            "  t=+0us query_begin qid=4711\n"
            "  t=+12us fanout qid=4711 dest=AltaVista a=3\n"
            "  t=+210us call_failed qid=4711 dest=AltaVista.shard0 "
            "cause=Unavailable a=17 b=-2\n"
            "  t=+51234us query_end qid=4711 cause=DeadlineExceeded "
            "a=51234");

  QueryRecord degraded;
  degraded.sql = "SELECT Count FROM WebCount WHERE T1 = 'colorado'";
  degraded.elapsed_micros = 295;
  degraded.stats.query_id = 12;
  degraded.stats.partial_results = 1;
  degraded.stats.degraded_shards = 1;
  degraded.stats.external_calls = 1;
  degraded.events = {
      MakeEvent(500, FrEventType::kFanout, 12, "AltaVista", "", 3)};
  EXPECT_EQ(degraded.ToText(),
            "postmortem id=12 verdict=OK cause=\"partial results from 1 "
            "call(s), 1 shard(s) missing\" elapsed=295us partial=1 "
            "external_calls=1 "
            "sql=\"SELECT Count FROM WebCount WHERE T1 = 'colorado'\"\n"
            "  t=+0us fanout qid=12 dest=AltaVista a=3");
}

QueryStats DegradedStats(uint64_t qid) {
  QueryStats s;
  s.query_id = qid;
  s.dropped_tuples = 1;
  return s;
}

TEST(QueryLogTest, PostmortemRateLimitsButRetainsLast) {
  int64_t now = 1'000'000;
  std::vector<uint64_t> emitted;
  QueryLog log(
      /*slow_query_micros=*/0, /*postmortem_min_interval_micros=*/1000,
      [&emitted](const QueryRecord& r) {
        EXPECT_TRUE(r.postmortem);
        EXPECT_EQ(r.cause(), "1 tuple(s) degraded");
        emitted.push_back(r.stats.query_id);
      },
      /*clock=*/[&now] { return now; });

  EXPECT_TRUE(log.OnQueryEnd("SELECT 1", Status::OK(), 1, 10,
                             DegradedStats(1)));
  now += 500;  // inside the interval: suppressed
  EXPECT_FALSE(log.OnQueryEnd("SELECT 1", Status::OK(), 1, 10,
                              DegradedStats(2)));
  now += 600;  // 1100us past the first emit: allowed again
  EXPECT_TRUE(log.OnQueryEnd("SELECT 1", Status::OK(), 1, 10,
                             DegradedStats(3)));

  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0], 1u);
  EXPECT_EQ(emitted[1], 3u);
  EXPECT_EQ(log.emitted_total(), 2u);
  EXPECT_EQ(log.suppressed_total(), 1u);

  // The suppressed record still becomes last() at the moment it is
  // logged, so \postmortem last always shows the newest bad ending.
  now += 100;
  EXPECT_FALSE(log.OnQueryEnd("SELECT 1", Status::OK(), 1, 10,
                              DegradedStats(4)));
  auto last = log.last();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->stats.query_id, 4u);
  EXPECT_FALSE(last->postmortem);
}

TEST(QueryLogTest, TruncatesEventSliceFromTheFront) {
  // The slice comes from the global flight recorder, by query id.
  const uint64_t qid = 995100;
  constexpr int kEvents = static_cast<int>(QueryLog::kMaxEvents) + 6;
  for (int i = 0; i < kEvents; ++i) {
    FlightRecorder::Global()->Record(FrEventType::kShardLegFail, "", "", qid,
                                     /*a=*/i);
  }
  Capture capture;
  QueryLog log(/*slow_query_micros=*/0, /*interval=*/0, capture.sink());
  EXPECT_TRUE(log.OnQueryEnd("SELECT 1", Status::Unavailable("down"), 0, 10,
                             MakeStats(qid)));
  ASSERT_EQ(capture.seen.size(), 1u);
  const QueryRecord& r = capture.seen[0];
  ASSERT_EQ(r.events.size(), QueryLog::kMaxEvents);
  EXPECT_EQ(r.events_dropped, 6u);
  // The ending is kept: the last kMaxEvents of the events survive.
  EXPECT_EQ(r.events.front().a, 6);
  EXPECT_EQ(r.events.back().a, kEvents - 1);
}

}  // namespace
}  // namespace wsq
