#ifndef WSQ_OBS_HISTOGRAM_H_
#define WSQ_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsq {

/// Log-linear ("HDR-lite") bucket layout shared by Histogram and
/// HistogramSnapshot:
///
///   - values 0..15 get one exact bucket each (indices 0..15);
///   - every octave [2^e, 2^(e+1)) with e >= 4 is split into 8 linear
///     sub-buckets of width 2^(e-3).
///
/// Relative error is therefore bounded by 1/8 (12.5%) across the whole
/// int64 range, which is plenty for latency quantiles, while the table
/// stays small enough (488 buckets) to snapshot and merge cheaply.
inline constexpr size_t kHistogramLinearMax = 16;
inline constexpr size_t kHistogramSubBuckets = 8;
/// Highest exponent a positive int64 can have (2^62 <= v < 2^63).
inline constexpr size_t kHistogramMaxExponent = 62;
inline constexpr size_t kHistogramBuckets =
    kHistogramLinearMax +
    (kHistogramMaxExponent - 3) * kHistogramSubBuckets;  // 488

/// Bucket index for `value`; negative values clamp to bucket 0.
size_t HistogramBucketIndex(int64_t value);

/// Exemplar cells are one per octave (values 0..15 share cell 0), so a
/// p99 spike in any octave keeps a pointer to a concrete query.
inline constexpr size_t kHistogramExemplarCells =
    kHistogramBuckets / kHistogramSubBuckets;  // 61

/// Exemplar cell index for `value` (the octave of its bucket).
size_t HistogramExemplarCell(int64_t value);

/// Last recorded (query id, value) witnessed in one octave. The two
/// fields are separate relaxed atomics, so a cell read during a
/// concurrent record may pair one event's id with another's value —
/// acceptable for a forensics hint, never for accounting.
struct HistogramExemplar {
  size_t cell = 0;
  /// Smallest value mapping to this cell's octave.
  int64_t octave_lower_bound = 0;
  int64_t value = 0;
  uint64_t query_id = 0;
};

/// Smallest / largest (inclusive) value mapping to bucket `index`.
int64_t HistogramBucketLowerBound(size_t index);
int64_t HistogramBucketUpperBound(size_t index);

/// A point-in-time copy of a Histogram, safe to merge and query without
/// synchronization. Also the unit the metrics exporters consume.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  int64_t max = 0;
  /// Either empty (no recordings) or exactly kHistogramBuckets wide.
  std::vector<uint64_t> buckets;

  void Merge(const HistogramSnapshot& other);

  /// Quantile estimate in [0, 1] from bucket midpoints, clamped to the
  /// observed max; exact for values below kHistogramLinearMax. Returns
  /// 0 for an empty snapshot.
  double Quantile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Concurrent log-linear histogram. Record() is lock-free (one relaxed
/// fetch_add per bucket/count/sum plus a CAS max) and safe from any
/// thread; Snapshot() is a relaxed read of all buckets — values
/// recorded concurrently may or may not be included, which is the usual
/// monitoring contract.
class Histogram {
 public:
  Histogram() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value) {
    if (gate_ != nullptr && !gate_->load(std::memory_order_relaxed)) return;
    if (value < 0) value = 0;
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(static_cast<uint64_t>(value), std::memory_order_relaxed);
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur && !max_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
    RecordExemplarFromThread(value);
  }

  /// Record() plus an explicit exemplar query id, for completion paths
  /// that run on a thread other than the one bound to the query (pump
  /// network threads, the pump's timer thread).
  void RecordWithExemplar(int64_t value, uint64_t query_id) {
    if (gate_ != nullptr && !gate_->load(std::memory_order_relaxed)) return;
    Record(value);
    if (query_id != 0) StoreExemplar(value < 0 ? 0 : value, query_id);
  }

  HistogramSnapshot Snapshot() const;

  /// Populated exemplar cells (query id != 0), ordered by cell.
  std::vector<HistogramExemplar> Exemplars() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;

  /// One (query id, value) pair per octave; see HistogramExemplar.
  struct ExemplarCell {
    std::atomic<uint64_t> query_id{0};
    std::atomic<int64_t> value{0};
  };

  /// Stamps the exemplar cell with the calling thread's bound query id
  /// (no-op when none is bound). Out of line: the TLS lookup lives in
  /// the obs library, not in every including TU.
  void RecordExemplarFromThread(int64_t value);
  void StoreExemplar(int64_t value, uint64_t query_id) {
    ExemplarCell& cell = exemplars_[HistogramExemplarCell(value)];
    cell.value.store(value, std::memory_order_relaxed);
    cell.query_id.store(query_id, std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_;
  std::array<ExemplarCell, kHistogramExemplarCells> exemplars_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<int64_t> max_{0};
  /// Registry kill switch (null = always record); set once at creation
  /// by MetricsRegistry, before the histogram is published.
  const std::atomic<bool>* gate_ = nullptr;
};

}  // namespace wsq

#endif  // WSQ_OBS_HISTOGRAM_H_
