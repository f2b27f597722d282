// Bucket math, snapshot/merge semantics, and concurrent recording for
// the log-linear histogram. The concurrent case is the one the CI TSan
// job runs (ctest label: obs).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/histogram.h"

namespace wsq {
namespace {

TEST(HistogramBucketsTest, SmallValuesGetExactBuckets) {
  for (int64_t v = 0; v < static_cast<int64_t>(kHistogramLinearMax); ++v) {
    size_t idx = HistogramBucketIndex(v);
    EXPECT_EQ(idx, static_cast<size_t>(v));
    EXPECT_EQ(HistogramBucketLowerBound(idx), v);
    EXPECT_EQ(HistogramBucketUpperBound(idx), v);
  }
}

TEST(HistogramBucketsTest, NegativeValuesClampToZero) {
  EXPECT_EQ(HistogramBucketIndex(-1), 0u);
  EXPECT_EQ(HistogramBucketIndex(INT64_MIN), 0u);
}

TEST(HistogramBucketsTest, OctaveBoundaries) {
  // The first log-linear bucket starts exactly at 16, and every octave
  // [2^e, 2^(e+1)) contributes kHistogramSubBuckets buckets.
  EXPECT_EQ(HistogramBucketIndex(16), kHistogramLinearMax);
  for (size_t e = 4; e <= kHistogramMaxExponent; ++e) {
    int64_t lo = int64_t{1} << e;
    size_t first = kHistogramLinearMax + (e - 4) * kHistogramSubBuckets;
    EXPECT_EQ(HistogramBucketIndex(lo), first) << "e=" << e;
    EXPECT_EQ(HistogramBucketLowerBound(first), lo) << "e=" << e;
    // The last value of the octave lands in its last sub-bucket.
    if (e < kHistogramMaxExponent) {
      int64_t hi = (int64_t{1} << (e + 1)) - 1;
      EXPECT_EQ(HistogramBucketIndex(hi),
                first + kHistogramSubBuckets - 1)
          << "e=" << e;
    }
  }
}

TEST(HistogramBucketsTest, BoundsBracketEveryProbe) {
  // lower <= v <= upper must hold for every probed value, and buckets
  // must tile: upper(i) + 1 == lower(i + 1).
  std::vector<int64_t> probes;
  for (size_t e = 0; e < 62; ++e) {
    int64_t p = int64_t{1} << e;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
    probes.push_back(p + p / 3);
  }
  for (int64_t v : probes) {
    size_t idx = HistogramBucketIndex(v);
    ASSERT_LT(idx, kHistogramBuckets);
    EXPECT_LE(HistogramBucketLowerBound(idx), v) << "v=" << v;
    EXPECT_GE(HistogramBucketUpperBound(idx), v) << "v=" << v;
  }
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_EQ(HistogramBucketUpperBound(i) + 1,
              HistogramBucketLowerBound(i + 1))
        << "i=" << i;
  }
}

TEST(HistogramBucketsTest, TopBucketEndsAtInt64Max) {
  EXPECT_EQ(HistogramBucketIndex(INT64_MAX), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketUpperBound(kHistogramBuckets - 1), INT64_MAX);
}

TEST(HistogramBucketsTest, RelativeErrorBounded) {
  // Bucket width / lower bound <= 1/8 past the linear range: quantiles
  // read from midpoints are within 12.5% of the truth.
  for (size_t i = kHistogramLinearMax; i < kHistogramBuckets; ++i) {
    int64_t lo = HistogramBucketLowerBound(i);
    int64_t hi = HistogramBucketUpperBound(i);
    EXPECT_LE(hi - lo + 1, lo / 8 + 1) << "i=" << i;
  }
}

TEST(HistogramTest, CountSumMaxAndExactSmallQuantiles) {
  Histogram h;
  for (int64_t v = 1; v <= 10; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10u);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.sum, 55u);
  EXPECT_EQ(s.max, 10);
  // Values below kHistogramLinearMax are exact.
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 10.0);
  EXPECT_NEAR(s.Quantile(0.5), 5.0, 1.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.5);
}

TEST(HistogramTest, QuantileClampsToObservedMax) {
  Histogram h;
  h.Record(1'000'000);  // one sample in a wide bucket
  HistogramSnapshot s = h.Snapshot();
  // The bucket midpoint may exceed the only recorded value; the
  // estimate must clamp to max.
  EXPECT_LE(s.Quantile(0.99), static_cast<double>(s.max));
  EXPECT_GT(s.Quantile(0.99), 0.0);
}

TEST(HistogramTest, EmptySnapshot) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(HistogramTest, MergeEqualsUnion) {
  Histogram a;
  Histogram b;
  for (int64_t v = 0; v < 100; ++v) (v % 2 == 0 ? a : b).Record(v * 37);
  Histogram all;
  for (int64_t v = 0; v < 100; ++v) all.Record(v * 37);

  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  HistogramSnapshot expected = all.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.max, expected.max);
  ASSERT_EQ(merged.buckets.size(), expected.buckets.size());
  EXPECT_EQ(merged.buckets, expected.buckets);
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a;
  a.Record(42);
  HistogramSnapshot s = a.Snapshot();
  s.Merge(HistogramSnapshot{});  // empty right-hand side
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 42u);

  HistogramSnapshot empty;  // empty left-hand side
  empty.Merge(a.Snapshot());
  EXPECT_EQ(empty.count, 1u);
  EXPECT_EQ(empty.max, 42);
}

// Concurrent Record from several threads: totals must balance exactly
// (each Record is one bucket increment + count + sum). Run under TSan
// in CI to certify the relaxed-atomic scheme.
TEST(HistogramTest, ConcurrentRecordBalances) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record((t * kPerThread + i) % 10'000);
      }
    });
  }
  for (auto& th : threads) th.join();

  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.max, 9999);
}

}  // namespace
}  // namespace wsq
