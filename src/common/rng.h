// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in kgov (graph generators, vote simulators,
// corpus generation, noise injection) takes an explicit Rng so that a seed
// fully determines an experiment. The engine is xoshiro256**, seeded through
// splitmix64 as its authors recommend.

#ifndef KGOV_COMMON_RNG_H_
#define KGOV_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace kgov {

/// Fast, high-quality, deterministic PRNG (xoshiro256**). Not
/// cryptographically secure. Satisfies UniformRandomBitGenerator, so it can
/// be used with <random> distributions as well.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(uint64_t seed = kDefaultSeed);

  /// Seed used when none is supplied; chosen arbitrarily but fixed forever.
  static constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64-bit value.
  uint64_t operator()() { return Next64(); }
  uint64_t Next64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  uint64_t NextIndex(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Box-Muller, cached spare).
  double NextGaussian();

  /// true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Samples k distinct indices from [0, n) without replacement
  /// (partial Fisher-Yates). Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextIndex(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Draws indices in [0, n) with probability proportional to fixed weights.
/// Construction sums the weights once, in index order, into running sums;
/// each Sample takes one NextDouble() * total and binary-searches for the
/// first running sum above it: O(log n) per draw, where a scan that re-sums
/// the weights is O(n). The sums never decrease, so the search lands on the
/// index that scan would, bit for bit.
class CategoricalSampler {
 public:
  /// Requires non-negative weights with a positive total.
  explicit CategoricalSampler(const std::vector<double>& weights);

  /// IndexAt(rng.NextDouble() * total).
  size_t Sample(Rng& rng) const;

  /// The index whose bucket holds `point`: the first i whose running sum
  /// exceeds it, or the last index when none does (numeric slack).
  size_t IndexAt(double point) const;

 private:
  std::vector<double> running_sums_;
};

}  // namespace kgov

#endif  // KGOV_COMMON_RNG_H_
