#ifndef WSQ_COMMON_RANDOM_H_
#define WSQ_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsq {

/// SplitMix64's increment (2^64 / golden ratio, odd).
inline constexpr uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64's output finalizer: a bijective mix of all 64 input bits.
/// Rng::Next is Mix64 of its state advanced by kSplitMixGamma; the
/// fault harnesses, shard assignment and static ranks use it as a
/// stable hash, so their outputs reproduce from seeds alone. Inline
/// because StaticRank runs it once per scored document.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of `h`.
inline double UnitDouble(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic 64-bit PRNG (SplitMix64).
///
/// Used everywhere randomness is needed (corpus generation, latency
/// jitter, workload constants) so that runs are reproducible from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  uint64_t state() const { return state_; }

 private:
  uint64_t state_;
};

/// Zipf(s) sampler over {0, .., n-1} with precomputed CDF.
///
/// Rank 0 is the most frequent element. Used to give the synthetic Web
/// corpus a realistic skewed term distribution.
///
/// A guide table over the CDF narrows each draw's search: with M a
/// power of two, bucket j starts at the first rank whose CDF reaches
/// j/M. A draw u lies in bucket floor(u * M), and both u * M and j/M
/// are exact in binary floating point, so the search within the bucket
/// returns the same rank as a binary search over the whole CDF.
class ZipfDistribution {
 public:
  /// `n` must be >= 1; `s` is the skew exponent (s=0 is uniform).
  ZipfDistribution(size_t n, double s);

  /// Samples a rank in [0, n).
  size_t Sample(Rng& rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  /// M + 1 entries: bucket j covers ranks [guide_[j], guide_[j + 1]].
  std::vector<size_t> guide_;
};

}  // namespace wsq

#endif  // WSQ_COMMON_RANDOM_H_
