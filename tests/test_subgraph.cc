#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"

namespace kgov::graph {
namespace {

TEST(SelectBfsRegionTest, CollectsRequestedCount) {
  Rng rng(1);
  Result<WeightedDigraph> g = ErdosRenyi(100, 400, rng);
  ASSERT_TRUE(g.ok());
  std::vector<NodeId> region = SelectBfsRegion(*g, 40, rng);
  EXPECT_EQ(region.size(), 40u);
  std::set<NodeId> unique(region.begin(), region.end());
  EXPECT_EQ(unique.size(), 40u);
}

TEST(SelectBfsRegionTest, TargetLargerThanGraphClamped) {
  Rng rng(2);
  WeightedDigraph g(5);
  std::vector<NodeId> region = SelectBfsRegion(g, 50, rng);
  EXPECT_EQ(region.size(), 5u);
}

TEST(SelectBfsRegionTest, RegionIsBfsConnectedOnConnectedGraph) {
  // On a directed ring every BFS region from one seed is a contiguous arc.
  WeightedDigraph g(10);
  for (NodeId v = 0; v < 10; ++v) {
    ASSERT_TRUE(g.AddEdge(v, (v + 1) % 10, 1.0).ok());
  }
  Rng rng(3);
  std::vector<NodeId> region = SelectBfsRegion(g, 4, rng);
  ASSERT_EQ(region.size(), 4u);
  for (size_t i = 1; i < region.size(); ++i) {
    EXPECT_EQ(region[i], (region[i - 1] + 1) % 10);
  }
}

TEST(SelectBfsRegionTest, DeterministicUnderSeed) {
  Rng rng_a(7), rng_b(7);
  Result<WeightedDigraph> g = ErdosRenyi(60, 240, rng_a);
  Rng rng_g(7);
  Result<WeightedDigraph> g2 = ErdosRenyi(60, 240, rng_g);
  ASSERT_TRUE(g.ok() && g2.ok());
  Rng r1(9), r2(9);
  EXPECT_EQ(SelectBfsRegion(*g, 30, r1), SelectBfsRegion(*g2, 30, r2));
}

TEST(CountInternalEdgesTest, Counts) {
  WeightedDigraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.1).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.1).ok());
  EXPECT_EQ(CountInternalEdges(g, {0, 1, 2}), 2u);
  EXPECT_EQ(CountInternalEdges(g, {0, 3}), 0u);
  EXPECT_EQ(CountInternalEdges(g, {}), 0u);
}

}  // namespace
}  // namespace kgov::graph
