#ifndef WSQ_OBS_QUERY_LOG_H_
#define WSQ_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/flight_recorder.h"
#include "obs/query_stats.h"

namespace wsq {

/// One statement's ending as the query log reports it. Built only for a
/// statement that was slow, failed, or returned degraded data; it has
/// two renderings, the slow-query line and the postmortem block.
struct QueryRecord {
  std::string sql;
  /// How the statement ended; non-OK means it failed.
  Status status;
  size_t rows = 0;
  /// Wall time Execute measured (parse, admission and execution); the
  /// slow-query threshold applies to it. For a SELECT it can exceed
  /// stats.elapsed_micros, which is the executor's own time.
  int64_t elapsed_micros = 0;
  /// The statement's counters; stats.query_id identifies it.
  QueryStats stats;
  /// Flight-recorder events stamped with the query id, ordered, for a
  /// failed or degraded ending only; trimmed from the front to
  /// QueryLog::kMaxEvents (the ending explains the verdict).
  std::vector<FrEvent> events;
  /// Events elided from the front.
  size_t events_dropped = 0;
  /// The threshold this record reached when it is a slow-query line;
  /// 0 = not slow.
  int64_t slow_threshold_micros = 0;
  /// True when this record carries an emitted postmortem: the statement
  /// failed or was degraded and the rate limit let it through.
  bool postmortem = false;

  /// The status code name (StatusCodeToString: "DeadlineExceeded",
  /// ...), "OK" for a degraded-but-ok ending.
  std::string_view verdict() const;
  /// The status message of a failed ending; for a degraded one, what
  /// degraded ("2 tuple(s) degraded", ...).
  std::string cause() const;

  /// `slow_query id=7 elapsed=1234us threshold=1000us ... sql="..."`:
  /// every token before sql is key=value or a quoted value, so the line
  /// splits on spaces; sql comes last.
  std::string ToLine() const;
  /// Multi-line postmortem: a header line, then one indented line per
  /// event (timestamps relative to the first event).
  std::string ToText() const;
};

/// The per-query log: one sink for slow-query lines and postmortems.
///
/// Execute hands it every statement's ending once. A fast, healthy
/// statement builds nothing. Otherwise at most one record goes to the
/// sink, marked slow (elapsed reached the threshold) and/or postmortem
/// (failed or degraded, subject to a min-interval rate limit).
///
/// Thread-safety: OnQueryEnd may run concurrently (one Execute per
/// thread); the sink must tolerate concurrent calls. The default sink
/// writes to stderr: ToLine() for a slow record, then ToText() for a
/// postmortem.
class QueryLog {
 public:
  using Sink = std::function<void(const QueryRecord&)>;
  using Clock = std::function<int64_t()>;

  /// Flight-recorder events kept per postmortem.
  static constexpr size_t kMaxEvents = 128;

  /// `slow_query_micros`: database-wide slow threshold (0 = off).
  /// `postmortem_min_interval_micros`: at most one emitted postmortem
  /// per interval (0 = unlimited). Null `sink` = stderr. `clock`
  /// overrides the steady clock (deterministic tests).
  explicit QueryLog(int64_t slow_query_micros = 0,
                    int64_t postmortem_min_interval_micros = 0,
                    Sink sink = nullptr, Clock clock = nullptr);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Current time from the injected clock (or the steady clock).
  int64_t NowMicros() const;

  /// Takes one statement's ending. `slow_query_override` >= 0 replaces
  /// the configured threshold for this statement (0 = disabled). A
  /// failed or degraded ending snapshots its events from the global
  /// flight recorder and becomes last(), emitted or suppressed. Returns
  /// true when the sink ran.
  bool OnQueryEnd(const std::string& sql, const Status& status,
                  size_t rows, int64_t elapsed_micros,
                  const QueryStats& stats, int64_t slow_query_override = -1)
      WSQ_EXCLUDES(mu_);

  /// Most recent failed or degraded ending (emitted or suppressed).
  std::shared_ptr<const QueryRecord> last() const WSQ_EXCLUDES(mu_);

  /// Postmortems emitted / suppressed by the rate limit.
  uint64_t emitted_total() const {
    return emitted_total_.load(std::memory_order_relaxed);
  }
  uint64_t suppressed_total() const {
    return suppressed_total_.load(std::memory_order_relaxed);
  }
  /// Records emitted as slow.
  uint64_t slow_total() const {
    return slow_total_.load(std::memory_order_relaxed);
  }

 private:
  const int64_t slow_query_micros_;
  const int64_t postmortem_min_interval_micros_;
  Sink sink_;
  Clock clock_;
  mutable Mutex mu_;
  int64_t last_emit_micros_ WSQ_GUARDED_BY(mu_) = 0;
  std::shared_ptr<const QueryRecord> last_ WSQ_GUARDED_BY(mu_);
  std::atomic<uint64_t> emitted_total_{0};
  std::atomic<uint64_t> suppressed_total_{0};
  std::atomic<uint64_t> slow_total_{0};
};

}  // namespace wsq

#endif  // WSQ_OBS_QUERY_LOG_H_
