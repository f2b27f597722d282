#include "common/random.h"

#include <algorithm>
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
}

size_t ZipfDistribution::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace wsq
