#include "cluster/vote_similarity.h"

#include <gtest/gtest.h>

namespace kgov::cluster {
namespace {

// Sets are written sorted, as cluster::EdgeSet requires.

TEST(JaccardTest, IdenticalSetsAreOne) {
  EdgeSet a{1, 2, 3};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0);
}

TEST(JaccardTest, DisjointSetsAreZero) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {3, 4}), 0.0);
}

TEST(JaccardTest, PartialOverlap) {
  // |{2,3}| / |{1,2,3,4}| = 0.5
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {2, 3, 4}), 0.5);
}

TEST(JaccardTest, EmptySets) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {}), 0.0);
}

TEST(JaccardTest, Symmetric) {
  EdgeSet a{1, 2, 3, 4};
  EdgeSet b{3, 4, 5};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), JaccardSimilarity(b, a));
}

TEST(JaccardTest, SubsetRatio) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {1, 2, 3, 4}), 0.5);
}

TEST(VoteSimilarityMatrixTest, DiagonalIsOne) {
  std::vector<EdgeSet> edges{{1, 2}, {3}, {1, 3}};
  auto sim = VoteSimilarityMatrix(edges);
  ASSERT_EQ(sim.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(sim[i][i], 1.0);
  }
}

TEST(VoteSimilarityMatrixTest, SymmetricEntries) {
  std::vector<EdgeSet> edges{{1, 2, 3}, {2, 3, 4}, {9}};
  auto sim = VoteSimilarityMatrix(edges);
  for (size_t i = 0; i < edges.size(); ++i) {
    for (size_t j = 0; j < edges.size(); ++j) {
      EXPECT_DOUBLE_EQ(sim[i][j], sim[j][i]);
    }
  }
  EXPECT_DOUBLE_EQ(sim[0][1], 0.5);
  EXPECT_DOUBLE_EQ(sim[0][2], 0.0);
}

TEST(VoteSimilarityMatrixTest, EmptyInput) {
  EXPECT_TRUE(VoteSimilarityMatrix({}).empty());
}

}  // namespace
}  // namespace kgov::cluster
