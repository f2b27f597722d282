#include "obs/histogram.h"

#include <algorithm>
#include <bit>

#include "obs/flight_recorder.h"

namespace wsq {

size_t HistogramBucketIndex(int64_t value) {
  if (value < static_cast<int64_t>(kHistogramLinearMax)) {
    return value < 0 ? 0 : static_cast<size_t>(value);
  }
  uint64_t v = static_cast<uint64_t>(value);
  // Exponent of the octave: 2^e <= v < 2^(e+1), e in [4, 62].
  size_t e = static_cast<size_t>(std::bit_width(v)) - 1;
  size_t sub = static_cast<size_t>((v - (uint64_t{1} << e)) >> (e - 3));
  return kHistogramLinearMax + (e - 4) * kHistogramSubBuckets + sub;
}

int64_t HistogramBucketLowerBound(size_t index) {
  if (index < kHistogramLinearMax) return static_cast<int64_t>(index);
  size_t off = index - kHistogramLinearMax;
  size_t e = off / kHistogramSubBuckets + 4;
  size_t sub = off % kHistogramSubBuckets;
  return static_cast<int64_t>((uint64_t{1} << e) +
                              sub * (uint64_t{1} << (e - 3)));
}

int64_t HistogramBucketUpperBound(size_t index) {
  if (index < kHistogramLinearMax) return static_cast<int64_t>(index);
  size_t off = index - kHistogramLinearMax;
  size_t e = off / kHistogramSubBuckets + 4;
  int64_t width = static_cast<int64_t>(uint64_t{1} << (e - 3));
  // width - 1 first: the top bucket ends at INT64_MAX, so lower + width
  // would overflow.
  return HistogramBucketLowerBound(index) + (width - 1);
}

size_t HistogramExemplarCell(int64_t value) {
  return HistogramBucketIndex(value) / kHistogramSubBuckets;
}

void Histogram::RecordExemplarFromThread(int64_t value) {
  // Gate already checked by Record(). Only stamps when the calling
  // thread is inside a query (CurrentQueryId() is bound by Execute).
  uint64_t query_id = CurrentQueryId();
  if (query_id != 0) StoreExemplar(value, query_id);
}

std::vector<HistogramExemplar> Histogram::Exemplars() const {
  std::vector<HistogramExemplar> out;
  for (size_t i = 0; i < kHistogramExemplarCells; ++i) {
    uint64_t qid = exemplars_[i].query_id.load(std::memory_order_relaxed);
    if (qid == 0) continue;
    HistogramExemplar e;
    e.cell = i;
    e.octave_lower_bound =
        HistogramBucketLowerBound(i * kHistogramSubBuckets);
    e.value = exemplars_[i].value.load(std::memory_order_relaxed);
    e.query_id = qid;
    out.push_back(e);
  }
  return out;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.buckets.resize(kHistogramBuckets);
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  if (other.buckets.empty()) return;
  if (buckets.empty()) {
    buckets = other.buckets;
    return;
  }
  for (size_t i = 0; i < buckets.size() && i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile among `count` ordered samples.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      double lo = static_cast<double>(HistogramBucketLowerBound(i));
      double hi = static_cast<double>(HistogramBucketUpperBound(i));
      double mid = i < kHistogramLinearMax ? lo : (lo + hi) / 2.0;
      // An estimate above the observed max would be pure bucket
      // granularity; clamp it away.
      return std::min(mid, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

}  // namespace wsq
