#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace wsq {

uint64_t Rng::Next() {
  state_ += kSplitMixGamma;
  return Mix64(state_);
}

uint64_t Rng::Uniform(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() { return UnitDouble(Next()); }

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

ZipfDistribution::ZipfDistribution(size_t n, double s) {
  cdf_.resize(n == 0 ? 1 : n);
  double total = 0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& v : cdf_) v /= total;

  const size_t buckets = std::bit_ceil(cdf_.size());
  guide_.resize(buckets + 1);
  for (size_t j = 0; j <= buckets; ++j) {
    double start = static_cast<double>(j) / static_cast<double>(buckets);
    guide_[j] = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), start) - cdf_.begin());
  }
}

size_t ZipfDistribution::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  const double buckets = static_cast<double>(guide_.size() - 1);
  size_t j = static_cast<size_t>(u * buckets);  // u < 1, so j < M
  auto first = cdf_.begin() + static_cast<ptrdiff_t>(guide_[j]);
  auto last = cdf_.begin() + static_cast<ptrdiff_t>(guide_[j + 1]);
  auto it = std::lower_bound(first, last, u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace wsq
