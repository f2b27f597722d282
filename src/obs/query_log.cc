#include "obs/query_log.h"

#include <cstdio>
#include <utility>

#include "common/clock.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace wsq {
namespace {

void AppendCount(std::string* out, const char* key, uint64_t value) {
  if (value > 0) {
    *out += StrFormat(" %s=%llu", key, (unsigned long long)value);
  }
}

// ` key="text"`, with newlines flattened so the record stays one line.
void AppendQuoted(std::string* out, const char* key,
                  const std::string& text) {
  *out += StrFormat(" %s=\"", key);
  for (char c : text) *out += (c == '\n' || c == '\r') ? ' ' : c;
  *out += '"';
}

// ` key=<code> cause="<why>"`: how an ending is spelled in both
// renderings (error= on the slow-query line, verdict= in the
// postmortem header).
void AppendVerdict(std::string* out, const char* key,
                   std::string_view code, const std::string& cause) {
  *out += StrFormat(" %s=%.*s", key, static_cast<int>(code.size()),
                    code.data());
  if (!cause.empty()) AppendQuoted(out, "cause", cause);
}

void AppendHedges(std::string* out, const QueryStats& stats) {
  AppendCount(out, "hedged_calls", stats.hedged_calls);
  AppendCount(out, "hedge_wins", stats.hedge_wins);
}

void AppendMemory(std::string* out, const QueryStats& stats) {
  if (stats.spill_runs > 0) {
    *out += StrFormat(" spill_runs=%llu spilled_bytes=%llu",
                      (unsigned long long)stats.spill_runs,
                      (unsigned long long)stats.spilled_bytes);
  }
  AppendCount(out, "peak_memory_bytes", stats.peak_memory_bytes);
}

/// The process-wide postmortem counters. The first QueryLog looks them
/// up, so the export carries them, at 0, from start-up.
struct PostmortemCounters {
  Counter* emitted;
  Counter* suppressed;
};

const PostmortemCounters& GlobalPostmortemCounters() {
  static const PostmortemCounters kCounters{
      MetricsRegistry::Global()->GetCounter("wsq_fr_postmortems_total",
                                            "Postmortem records emitted"),
      MetricsRegistry::Global()->GetCounter(
          "wsq_fr_postmortems_suppressed_total",
          "Postmortem records suppressed by rate limiting")};
  return kCounters;
}

}  // namespace

std::string_view QueryRecord::verdict() const {
  return StatusCodeToString(status.code());
}

std::string QueryRecord::cause() const {
  if (!status.ok()) return status.message();
  if (stats.partial_results > 0) {
    return StrFormat(
        "partial results from %llu call(s), %llu shard(s) missing",
        (unsigned long long)stats.partial_results,
        (unsigned long long)stats.degraded_shards);
  }
  if (stats.degraded_tuples() > 0) {
    return StrFormat("%llu tuple(s) degraded",
                     (unsigned long long)stats.degraded_tuples());
  }
  return "";
}

std::string QueryRecord::ToLine() const {
  std::string out = StrFormat(
      "slow_query id=%llu elapsed=%lldus threshold=%lldus mode=%s rows=%zu",
      (unsigned long long)stats.query_id, (long long)elapsed_micros,
      (long long)slow_threshold_micros,
      stats.async_iteration ? "async" : "sync", rows);
  AppendCount(&out, "external_calls", stats.external_calls);
  AppendCount(&out, "failed_calls", stats.failed_calls);
  AppendHedges(&out, stats);
  AppendCount(&out, "degraded_tuples", stats.degraded_tuples());
  if (stats.partial_results > 0) {
    out += StrFormat(" partial_results=%llu degraded_shards=%llu",
                     (unsigned long long)stats.partial_results,
                     (unsigned long long)stats.degraded_shards);
  }
  AppendMemory(&out, stats);
  if (!status.ok()) AppendVerdict(&out, "error", verdict(), status.message());
  AppendQuoted(&out, "sql", sql);
  return out;
}

std::string QueryRecord::ToText() const {
  std::string out =
      StrFormat("postmortem id=%llu", (unsigned long long)stats.query_id);
  AppendVerdict(&out, "verdict", verdict(), cause());
  out += StrFormat(" elapsed=%lldus", (long long)elapsed_micros);
  if (stats.partial_results > 0) out += " partial=1";
  AppendCount(&out, "degraded_tuples", stats.degraded_tuples());
  AppendCount(&out, "external_calls", stats.external_calls);
  AppendCount(&out, "failed_calls", stats.failed_calls);
  AppendHedges(&out, stats);
  AppendMemory(&out, stats);
  AppendQuoted(&out, "sql", sql);
  if (events_dropped > 0) {
    out += StrFormat("\n  ... %zu earlier events elided", events_dropped);
  }
  const int64_t base = events.empty() ? 0 : events.front().timestamp_micros;
  for (const FrEvent& e : events) {
    out += "\n  ";
    out += e.ToLine(base);
  }
  return out;
}

QueryLog::QueryLog(int64_t slow_query_micros,
                   int64_t postmortem_min_interval_micros, Sink sink,
                   Clock clock)
    : slow_query_micros_(slow_query_micros < 0 ? 0 : slow_query_micros),
      postmortem_min_interval_micros_(postmortem_min_interval_micros),
      sink_(std::move(sink)),
      clock_(std::move(clock)) {
  GlobalPostmortemCounters();
}

int64_t QueryLog::NowMicros() const {
  return clock_ ? clock_() : wsq::NowMicros();
}

bool QueryLog::OnQueryEnd(const std::string& sql, const Status& status,
                          size_t rows, int64_t elapsed_micros,
                          const QueryStats& stats,
                          int64_t slow_query_override) {
  const int64_t threshold =
      slow_query_override >= 0 ? slow_query_override : slow_query_micros_;
  const bool slow = threshold > 0 && elapsed_micros >= threshold;
  const bool bad = !status.ok() || stats.degraded();
  if (!slow && !bad) return false;

  auto record = std::make_shared<QueryRecord>();
  record->sql = sql;
  record->status = status;
  record->rows = rows;
  record->elapsed_micros = elapsed_micros;
  record->stats = stats;
  if (slow) {
    record->slow_threshold_micros = threshold;
    slow_total_.fetch_add(1, std::memory_order_relaxed);
  }
  if (bad) {
    std::vector<FrEvent>& events = record->events;
    events = FlightRecorder::Global()->EventsForQuery(stats.query_id);
    if (events.size() > kMaxEvents) {
      record->events_dropped = events.size() - kMaxEvents;
      events.erase(events.begin(), events.end() - kMaxEvents);
    }
    {
      MutexLock lock(&mu_);
      const int64_t now = NowMicros();
      record->postmortem = postmortem_min_interval_micros_ <= 0 ||
                           last_emit_micros_ == 0 ||
                           now - last_emit_micros_ >=
                               postmortem_min_interval_micros_;
      if (record->postmortem) last_emit_micros_ = now;
      last_ = record;
    }
    if (record->postmortem) {
      emitted_total_.fetch_add(1, std::memory_order_relaxed);
      GlobalPostmortemCounters().emitted->Increment();
    } else {
      suppressed_total_.fetch_add(1, std::memory_order_relaxed);
      GlobalPostmortemCounters().suppressed->Increment();
    }
  }
  if (!slow && !record->postmortem) return false;

  if (sink_) {
    sink_(*record);
    return true;
  }
  if (slow) std::fprintf(stderr, "%s\n", record->ToLine().c_str());
  if (record->postmortem) {
    std::fprintf(stderr, "%s\n", record->ToText().c_str());
  }
  return true;
}

std::shared_ptr<const QueryRecord> QueryLog::last() const {
  MutexLock lock(&mu_);
  return last_;
}

}  // namespace wsq
