#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace kgov {
namespace {

// splitmix64: expands one seed word into well-mixed state words.
uint64_t SplitMix64(uint64_t& x) {
  uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
  // xoshiro's all-zero state is absorbing; splitmix64 of any seed cannot
  // produce four zero words, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 1;
  }
}

uint64_t Rng::Next64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  KGOV_DCHECK(lo < hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextIndex(uint64_t n) {
  KGOV_DCHECK(n > 0);
  // Rejection sampling over the largest multiple of n to avoid modulo bias.
  const uint64_t threshold = (~uint64_t{0} - n + 1) % n;  // == 2^64 mod n
  for (;;) {
    uint64_t r = Next64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  KGOV_DCHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next64());  // full 64-bit range
  return lo + static_cast<int64_t>(NextIndex(span));
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  KGOV_CHECK(k <= n) << "cannot sample " << k << " of " << n;
  std::vector<size_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(NextIndex(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

CategoricalSampler::CategoricalSampler(const std::vector<double>& weights) {
  running_sums_.reserve(weights.size());
  double total = 0.0;
  for (double w : weights) {
    KGOV_DCHECK(w >= 0.0);
    total += w;
    running_sums_.push_back(total);
  }
  KGOV_CHECK(total > 0.0)
      << "CategoricalSampler requires a positive total weight";
}

size_t CategoricalSampler::Sample(Rng& rng) const {
  return IndexAt(rng.NextDouble() * running_sums_.back());
}

size_t CategoricalSampler::IndexAt(double point) const {
  const auto it =
      std::upper_bound(running_sums_.begin(), running_sums_.end(), point);
  if (it == running_sums_.end()) {
    return running_sums_.size() - 1;  // numeric slack: the last bucket
  }
  return static_cast<size_t>(it - running_sums_.begin());
}

}  // namespace kgov
