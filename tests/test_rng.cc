#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <vector>

namespace kgov {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-3.0, 2.5);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 2.5);
  }
}

TEST(RngTest, NextIndexCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextIndex(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, n / 10.0 * 0.1);
  }
}

TEST(RngTest, NextIndexOfOneIsZero) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.NextIndex(1), 0u);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(19);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0, ss = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    ss += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(ss / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(41);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, CategoricalProportionalToWeights) {
  Rng rng(47);
  const CategoricalSampler sampler({1.0, 3.0, 6.0});
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[sampler.Sample(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(RngTest, CategoricalZeroWeightNeverPicked) {
  Rng rng(53);
  const CategoricalSampler sampler({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler.Sample(rng), 1u);
  }
}

// The per-draw linear scan the sampler replaced: re-sums the weights, then
// returns the first index whose running sum exceeds `point` (NextDouble()
// times the total), or the last index when none does.
size_t LinearScanIndex(const std::vector<double>& weights, double point) {
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (point < acc) return i;
  }
  return weights.size() - 1;
}

double Total(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  return total;
}

// Same seed, same weights: the sampler's index stream is the scan's, draw
// for draw, on weights with runs of zeros (equal running sums), zeros at
// both ends, and a single positive weight. A random point almost never
// lands on a running sum, so every running sum, its neighbours and the
// total are also looked up directly: a point equal to a sum belongs to
// the next positive bucket.
TEST(RngTest, CategoricalSamplerMatchesLinearScan) {
  std::mt19937_64 gen(0xCA7E);
  std::vector<std::vector<double>> cases = {
      {0.0, 0.0, 2.5, 0.0}, {1e-300, 0.0, 1.0}, {0.0, 0.0, 0.0, 0.0, 7.0}};
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> weights(1 + gen() % 300);
    for (double& w : weights) {
      const uint64_t draw = gen() % 4;
      w = draw == 0 ? 0.0
                    : std::ldexp(static_cast<double>(1 + gen() % 1000),
                                 -static_cast<int>(gen() % 20));
    }
    weights[gen() % weights.size()] += 1.0;  // a positive total
    cases.push_back(std::move(weights));
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    const std::vector<double>& weights = cases[c];
    const CategoricalSampler sampler(weights);
    Rng sampled(c + 1);
    Rng scanned(c + 1);
    for (int draw = 0; draw < 2000; ++draw) {
      ASSERT_EQ(sampler.Sample(sampled),
                LinearScanIndex(weights, scanned.NextDouble() * Total(weights)))
          << "case " << c << " draw " << draw;
    }
    double sum = 0.0;
    for (double w : weights) {
      sum += w;
      for (double point : {std::nextafter(sum, 0.0), sum,
                           std::nextafter(sum, 2.0 * sum + 1.0)}) {
        EXPECT_EQ(sampler.IndexAt(point), LinearScanIndex(weights, point))
            << "case " << c << " point " << point;
      }
    }
    EXPECT_EQ(sampler.IndexAt(0.0), LinearScanIndex(weights, 0.0));
  }
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

}  // namespace
}  // namespace kgov
