#ifndef WSQ_OBS_TRACE_H_
#define WSQ_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"

namespace wsq {

/// One recorded span or instant event. Times are relative to the
/// tracer's epoch (query start), so traces are stable to read and cheap
/// to ship.
struct TraceSpan {
  /// Span taxonomy (DESIGN.md §12): "query" (phases), "op" (operator
  /// Open/Close), "reqpump" (call register/dispatch/complete/cancel),
  /// "reqsync" (buffer/wait/proliferate), "net" (EVScan's wait on its
  /// pump call), "storage" (page I/O), "wal" (log append/commit).
  std::string category;
  std::string name;
  std::string detail;
  int64_t start_micros = 0;     ///< offset from the tracer epoch
  int64_t duration_micros = 0;  ///< 0 for instant events
  bool instant = false;
  int depth = 0;  ///< nesting level at the time the span was open
};

/// The finished, consumable form of a trace (Tracer::Finish): spans
/// ordered parents-before-children.
struct QueryTrace {
  std::vector<TraceSpan> spans;
  /// Spans not recorded because the budget (max_spans) was exhausted.
  uint64_t dropped_spans = 0;
  size_t max_spans = 0;

  /// Human-readable rendering, one line per span, indented by depth.
  std::string ToString() const;
};

/// Per-query trace recorder.
///
/// Thread model: a Tracer belongs to the one thread executing its
/// query (operators are single-threaded by contract), so recording is
/// plain vector appends — no lock, no atomics. Cross-thread work
/// (ReqPump completions) is recorded from the query thread when the
/// completion is consumed, using the timing the pump attached to the
/// CallResult. Cost when tracing is off is a single null check at each
/// instrumentation site.
///
/// Budget: at most `max_spans` spans are kept; further spans are
/// counted in dropped_spans() and otherwise free. Note spans are
/// recorded when they CLOSE, so under truncation a long-running parent
/// may be dropped while its children survive.
class Tracer {
 public:
  static constexpr size_t kDefaultMaxSpans = 4096;

  explicit Tracer(size_t max_spans = kDefaultMaxSpans)
      : max_spans_(max_spans == 0 ? kDefaultMaxSpans : max_spans),
        epoch_micros_(NowMicros()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opens at construction, records at destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view category, std::string name)
        : tracer_(tracer),
          category_(category),
          name_(std::move(name)),
          start_micros_(NowMicros()) {
      depth_ = tracer_->depth_++;
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    ~Scope() {
      --tracer_->depth_;
      tracer_->Record(category_, std::move(name_), std::move(detail_),
                      start_micros_, NowMicros() - start_micros_,
                      /*instant=*/false, depth_);
    }

    /// Attaches free-form detail, visible when the span is recorded.
    void AppendDetail(std::string_view detail) {
      if (!detail_.empty()) detail_ += " ";
      detail_ += detail;
    }

   private:
    Tracer* tracer_;
    std::string_view category_;
    std::string name_;
    std::string detail_;
    int64_t start_micros_;
    int depth_;
  };

  /// Instant event at the current nesting depth.
  void Event(std::string_view category, std::string name,
             std::string detail = "") {
    int64_t now = NowMicros();
    Record(category, std::move(name), std::move(detail), now, 0,
           /*instant=*/true, depth_);
  }

  /// Finishes the trace: spans sorted parents-first (by start time,
  /// then outermost depth). The tracer is left empty.
  QueryTrace Finish();

  size_t span_count() const { return spans_.size(); }
  uint64_t dropped_spans() const { return dropped_; }
  size_t max_spans() const { return max_spans_; }
  int64_t epoch_micros() const { return epoch_micros_; }

  /// The tracer bound to this thread (null if none) — how layers with
  /// no ExecContext access (buffer pool, WAL) attach I/O spans to the
  /// running query. Bound via ThreadBinding for the query's duration.
  static Tracer* CurrentThread();

  /// Scoped TLS binding; restores the previous binding on destruction.
  /// Binding null is a no-op placeholder (tracing disabled).
  class ThreadBinding {
   public:
    explicit ThreadBinding(Tracer* tracer);
    ~ThreadBinding();

    ThreadBinding(const ThreadBinding&) = delete;
    ThreadBinding& operator=(const ThreadBinding&) = delete;

   private:
    Tracer* previous_;
  };

 private:
  friend class Scope;

  void Record(std::string_view category, std::string name,
              std::string detail, int64_t start_abs_micros,
              int64_t duration_micros, bool instant, int depth) {
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return;
    }
    TraceSpan span;
    span.category = std::string(category);
    span.name = std::move(name);
    span.detail = std::move(detail);
    span.start_micros = start_abs_micros - epoch_micros_;
    span.duration_micros = duration_micros;
    span.instant = instant;
    span.depth = depth;
    spans_.push_back(std::move(span));
  }

  size_t max_spans_;
  int64_t epoch_micros_;
  int depth_ = 0;
  uint64_t dropped_ = 0;
  std::vector<TraceSpan> spans_;
};

}  // namespace wsq

#endif  // WSQ_OBS_TRACE_H_
