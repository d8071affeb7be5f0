#include "cluster/affinity_propagation.h"

#include <gtest/gtest.h>

#include <set>

namespace kgov::cluster {
namespace {

// Block-diagonal similarity: two obvious groups {0,1,2} and {3,4,5}.
std::vector<std::vector<double>> TwoBlockMatrix() {
  const size_t n = 6;
  std::vector<std::vector<double>> s(n, std::vector<double>(n, 0.05));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      bool same_block = (i < 3) == (j < 3);
      s[i][j] = same_block ? 0.9 : 0.05;
    }
    s[i][i] = 1.0;
  }
  return s;
}

TEST(ApTest, EmptyMatrixRejected) {
  EXPECT_FALSE(AffinityPropagation({}).ok());
}

TEST(ApTest, NonSquareRejected) {
  std::vector<std::vector<double>> bad{{1.0, 0.5}, {0.5}};
  EXPECT_FALSE(AffinityPropagation(bad).ok());
}

TEST(ApTest, SingleItemTrivialCluster) {
  Result<ApResult> r = AffinityPropagation({{1.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->labels, (std::vector<int>{0}));
  EXPECT_EQ(r->exemplars, (std::vector<size_t>{0}));
  EXPECT_TRUE(r->converged);
}

TEST(ApTest, RecoversTwoBlocks) {
  Result<ApResult> r = AffinityPropagation(TwoBlockMatrix());
  ASSERT_TRUE(r.ok());
  // Items within a block share a label; items across blocks do not.
  EXPECT_EQ(r->labels[0], r->labels[1]);
  EXPECT_EQ(r->labels[1], r->labels[2]);
  EXPECT_EQ(r->labels[3], r->labels[4]);
  EXPECT_EQ(r->labels[4], r->labels[5]);
  EXPECT_NE(r->labels[0], r->labels[3]);
  EXPECT_EQ(r->exemplars.size(), 2u);
}

TEST(ApTest, LabelsIndexExemplars) {
  Result<ApResult> r = AffinityPropagation(TwoBlockMatrix());
  ASSERT_TRUE(r.ok());
  for (int label : r->labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(static_cast<size_t>(label), r->exemplars.size());
  }
  // Each exemplar belongs to its own cluster.
  for (size_t c = 0; c < r->exemplars.size(); ++c) {
    EXPECT_EQ(r->labels[r->exemplars[c]], static_cast<int>(c));
  }
}

TEST(ApTest, HighPreferenceMakesManyClusters) {
  ApOptions many;
  many.preference = 1.5;  // self-similarity above everything else
  Result<ApResult> r = AffinityPropagation(TwoBlockMatrix(), many);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exemplars.size(), 6u);  // every item its own exemplar
}

TEST(ApTest, LowPreferenceMakesFewClusters) {
  ApOptions few;
  few.preference = -10.0;
  Result<ApResult> r = AffinityPropagation(TwoBlockMatrix(), few);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->exemplars.size(), 2u);
  EXPECT_GE(r->exemplars.size(), 1u);
}

TEST(ApTest, IdenticalItemsFormOneCluster) {
  const size_t n = 5;
  std::vector<std::vector<double>> s(n, std::vector<double>(n, 0.8));
  ApOptions options;
  options.preference = 0.1;  // below the mutual similarity
  Result<ApResult> r = AffinityPropagation(s, options);
  ASSERT_TRUE(r.ok());
  std::set<int> labels(r->labels.begin(), r->labels.end());
  EXPECT_EQ(labels.size(), 1u);
}

TEST(ApTest, DeterministicForFixedInput) {
  Result<ApResult> a = AffinityPropagation(TwoBlockMatrix());
  Result<ApResult> b = AffinityPropagation(TwoBlockMatrix());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->exemplars, b->exemplars);
}

}  // namespace
}  // namespace kgov::cluster
