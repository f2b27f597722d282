#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

namespace wsq {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) hit_lo = true;
    if (v == 3) hit_hi = true;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Bernoulli(0.25)) ++hits;
  }
  double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(ZipfTest, SamplesWithinRange) {
  Rng rng(5);
  ZipfDistribution zipf(100, 1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(5);
  ZipfDistribution zipf(1000, 1.2);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  // Rank 0 should be sampled far more often than rank 100.
  EXPECT_GT(counts[0], counts[100] * 5);
}

TEST(ZipfTest, ZeroSkewIsRoughlyUniform) {
  Rng rng(17);
  ZipfDistribution zipf(10, 0.0);
  std::map<size_t, int> counts;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / kTrials, 0.1, 0.02)
        << "rank " << rank;
  }
}

TEST(ZipfTest, SingleElement) {
  Rng rng(1);
  ZipfDistribution zipf(1, 1.0);
  EXPECT_EQ(zipf.Sample(rng), 0u);
}

/// The rank a binary search over the whole of `cdf` gives for `u`: the
/// reference ZipfDistribution's guided search must match.
size_t FullSearchRank(const std::vector<double>& cdf, double u) {
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) return cdf.size() - 1;
  return static_cast<size_t>(it - cdf.begin());
}

/// An Rng whose next NextDouble() is exactly `u`, a multiple of 2^-53
/// in [0, 1): inverts Mix64 on the 64-bit value that maps to `u`.
Rng RngYielding(double u) {
  uint64_t z = static_cast<uint64_t>(u * 0x1.0p53) << 11;
  z ^= (z >> 31) ^ (z >> 62);
  z *= 0x319642B2D24D8EC3ull;  // inverse of 0x94D049BB133111EB
  z ^= (z >> 27) ^ (z >> 54);
  z *= 0x96DE1B173F119089ull;  // inverse of 0xBF58476D1CE4E5B9
  z ^= (z >> 30) ^ (z >> 60);
  return Rng(z - kSplitMixGamma);
}

TEST(RandomTest, ZipfSampleMatchesFullBinarySearch) {
  constexpr int kDraws = 1 << 20;
  const std::pair<size_t, double> kCases[] = {
      {1, 1.0}, {10, 0.0}, {1000, 1.2}, {4000, 1.05}};
  for (const auto& [n, s] : kCases) {
    // The CDF exactly as ZipfDistribution computes it.
    std::vector<double> cdf(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf[i] = total;
    }
    for (double& v : cdf) v /= total;
    const ZipfDistribution zipf(n, s);

    // Random draws: the same NextDouble() from a copy of the Rng.
    Rng rng(1000 + n);
    Rng copy = rng;
    size_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      size_t rank = zipf.Sample(rng);
      if (rank != FullSearchRank(cdf, copy.NextDouble())) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
    EXPECT_EQ(rng.state(), copy.state()) << "n=" << n << " s=" << s;

    // Draws on and next to every boundary: each CDF value rounded down
    // and up to a multiple of 2^-53, and each power-of-two bucket start
    // j/M with the value below it.
    std::vector<double> edges;
    for (double v : cdf) {
      double k = std::floor(v * 0x1.0p53);
      edges.push_back(k * 0x1.0p-53);
      edges.push_back((k + 1) * 0x1.0p-53);
    }
    for (size_t m = 1; m < 2 * n; m *= 2) {
      for (size_t j = 0; j <= m; ++j) {
        double start = static_cast<double>(j) / static_cast<double>(m);
        edges.push_back(start);
        edges.push_back(start - 0x1.0p-53);
      }
    }
    for (double u : edges) {
      if (u < 0 || u >= 1) continue;
      Rng at = RngYielding(u);
      ASSERT_EQ(Rng(at).NextDouble(), u);
      EXPECT_EQ(zipf.Sample(at), FullSearchRank(cdf, u))
          << "n=" << n << " s=" << s << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace wsq
