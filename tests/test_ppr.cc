#include "ppr/ppr.h"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.h"
#include "graph/csr.h"

namespace kgov::ppr {
namespace {

using graph::WeightedDigraph;

// Two-node cycle with unit weights: symmetric stationary distribution.
WeightedDigraph MakeCycle() {
  WeightedDigraph g(2);
  EXPECT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(1, 0, 1.0).ok());
  return g;
}

TEST(PprTest, InvalidSourceRejected) {
  WeightedDigraph g(2);
  EXPECT_FALSE(PowerIterationPpr(graph::CsrSnapshot(g).View(), 7).ok());
}

TEST(PprTest, InvalidRestartRejected) {
  WeightedDigraph g = MakeCycle();
  PprOptions options;
  options.restart = 0.0;
  EXPECT_FALSE(PowerIterationPpr(
      graph::CsrSnapshot(g).View(), 0, options).ok());
  options.restart = 1.0;
  EXPECT_FALSE(PowerIterationPpr(
      graph::CsrSnapshot(g).View(), 0, options).ok());
}

TEST(PprTest, SuperStochasticGraphRejected) {
  WeightedDigraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  EXPECT_FALSE(PowerIterationPpr(graph::CsrSnapshot(g).View(), 0).ok());
}

TEST(PprTest, IsolatedSourceKeepsOnlyRestartMass) {
  WeightedDigraph g(2);  // no edges
  Result<std::vector<double>> pi = PowerIterationPpr(
      graph::CsrSnapshot(g).View(), 0);
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR((*pi)[0], 0.15, 1e-10);
  EXPECT_NEAR((*pi)[1], 0.0, 1e-10);
}

TEST(PprTest, StochasticGraphScoresSumToOne) {
  // On a graph where every node has out-weight exactly 1, PPR mass is
  // conserved: sum_i pi[i] = 1.
  Rng rng(3);
  Result<WeightedDigraph> g = graph::ErdosRenyi(40, 200, rng);
  ASSERT_TRUE(g.ok());
  // Some nodes may lack out-edges; patch them with a self-loop.
  for (graph::NodeId v = 0; v < g->NumNodes(); ++v) {
    if (g->OutDegree(v) == 0) {
      ASSERT_TRUE(g->AddEdge(v, v, 1.0).ok());
    }
  }
  Result<std::vector<double>> pi = PowerIterationPpr(
      graph::CsrSnapshot(*g).View(), 5);
  ASSERT_TRUE(pi.ok());
  double total = std::accumulate(pi->begin(), pi->end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(PprTest, CycleClosedForm) {
  // For the 2-cycle: pi(0) = c / (1 - (1-c)^2), pi(1) = (1-c) * pi(0).
  WeightedDigraph g = MakeCycle();
  const double c = 0.15;
  Result<std::vector<double>> pi = PowerIterationPpr(
      graph::CsrSnapshot(g).View(), 0);
  ASSERT_TRUE(pi.ok());
  double expected0 = c / (1.0 - (1.0 - c) * (1.0 - c));
  EXPECT_NEAR((*pi)[0], expected0, 1e-9);
  EXPECT_NEAR((*pi)[1], (1.0 - c) * expected0, 1e-9);
}

TEST(PprTest, SourceHasHighestScore) {
  Rng rng(7);
  Result<WeightedDigraph> g = graph::ErdosRenyi(30, 150, rng);
  ASSERT_TRUE(g.ok());
  Result<std::vector<double>> pi = PowerIterationPpr(
      graph::CsrSnapshot(*g).View(), 3);
  ASSERT_TRUE(pi.ok());
  for (size_t i = 0; i < pi->size(); ++i) {
    EXPECT_LE((*pi)[i], (*pi)[3] + 1e-12);
  }
}

TEST(PprFromSeedTest, EmptySeedRejected) {
  WeightedDigraph g = MakeCycle();
  EXPECT_FALSE(PowerIterationPprFromSeed(
      graph::CsrSnapshot(g).View(), QuerySeed{}).ok());
}

TEST(PprFromSeedTest, SeedNodeOutOfRangeRejected) {
  WeightedDigraph g = MakeCycle();
  QuerySeed seed;
  seed.links.emplace_back(9, 1.0);
  EXPECT_FALSE(PowerIterationPprFromSeed(
      graph::CsrSnapshot(g).View(), seed).ok());
}

TEST(PprFromSeedTest, MatchesManualSeriesOnChain) {
  // Graph 0 -> 1 (w=1), seed = {(0, 1.0)}:
  //   pi[0] = sum_k c(1-c)^{1} restricted... walk lengths: q->0 length 1,
  //   q->0->1 length 2. pi[0] = c(1-c), pi[1] = c(1-c)^2.
  WeightedDigraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  QuerySeed seed;
  seed.links.emplace_back(0, 1.0);
  Result<std::vector<double>> pi = PowerIterationPprFromSeed(
      graph::CsrSnapshot(g).View(), seed);
  ASSERT_TRUE(pi.ok());
  const double c = 0.15;
  EXPECT_NEAR((*pi)[0], c * (1 - c), 1e-10);
  EXPECT_NEAR((*pi)[1], c * (1 - c) * (1 - c), 1e-10);
}

TEST(PprFromSeedTest, LinearInSeedWeights) {
  Rng rng(11);
  Result<WeightedDigraph> g = graph::ErdosRenyi(25, 120, rng);
  ASSERT_TRUE(g.ok());
  QuerySeed a;
  a.links.emplace_back(0, 1.0);
  QuerySeed b;
  b.links.emplace_back(1, 1.0);
  QuerySeed mix;
  mix.links.emplace_back(0, 0.3);
  mix.links.emplace_back(1, 0.7);

  auto pa = PowerIterationPprFromSeed(graph::CsrSnapshot(*g).View(), a);
  auto pb = PowerIterationPprFromSeed(graph::CsrSnapshot(*g).View(), b);
  auto pm = PowerIterationPprFromSeed(graph::CsrSnapshot(*g).View(), mix);
  ASSERT_TRUE(pa.ok() && pb.ok() && pm.ok());
  for (size_t i = 0; i < pm->size(); ++i) {
    EXPECT_NEAR((*pm)[i], 0.3 * (*pa)[i] + 0.7 * (*pb)[i], 1e-9);
  }
}

TEST(RandomWalkBaselineTest, AgreesWithSeedPpr) {
  Rng rng(13);
  Result<WeightedDigraph> g = graph::ErdosRenyi(30, 150, rng);
  ASSERT_TRUE(g.ok());
  QuerySeed seed = QuerySeed::FromNode(*g, 0);
  ASSERT_FALSE(seed.empty());
  RandomWalkBaseline baseline(&*g);
  Result<std::vector<double>> pi = PowerIterationPprFromSeed(
      graph::CsrSnapshot(*g).View(), seed);
  ASSERT_TRUE(pi.ok());
  for (graph::NodeId answer : {1u, 5u, 12u}) {
    Result<double> s = baseline.Similarity(seed, answer);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(*s, (*pi)[answer], 1e-9);
  }
}

TEST(RandomWalkBaselineTest, InvalidAnswerRejected) {
  WeightedDigraph g = MakeCycle();
  RandomWalkBaseline baseline(&g);
  QuerySeed seed = QuerySeed::FromNode(g, 0);
  EXPECT_FALSE(baseline.Similarity(seed, 77).ok());
}

TEST(QuerySeedTest, FromNodeCopiesOutEdges) {
  WeightedDigraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.3).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.7).ok());
  QuerySeed seed = QuerySeed::FromNode(g, 0);
  ASSERT_EQ(seed.links.size(), 2u);
  EXPECT_EQ(seed.links[0].first, 1u);
  EXPECT_DOUBLE_EQ(seed.links[0].second, 0.3);
  EXPECT_DOUBLE_EQ(seed.TotalWeight(), 1.0);
}

TEST(QuerySeedTest, UniformOver) {
  QuerySeed seed = QuerySeed::UniformOver({4, 7, 9});
  ASSERT_EQ(seed.links.size(), 3u);
  for (const auto& [node, w] : seed.links) {
    EXPECT_NEAR(w, 1.0 / 3.0, 1e-12);
  }
  EXPECT_TRUE(QuerySeed::UniformOver({}).empty());
}

TEST(QuerySeedTest, Normalize) {
  QuerySeed seed;
  seed.links.emplace_back(0, 2.0);
  seed.links.emplace_back(1, 6.0);
  seed.Normalize();
  EXPECT_DOUBLE_EQ(seed.links[0].second, 0.25);
  EXPECT_DOUBLE_EQ(seed.links[1].second, 0.75);
  QuerySeed zero;
  zero.links.emplace_back(0, 0.0);
  zero.Normalize();  // no-op, no crash
  EXPECT_DOUBLE_EQ(zero.links[0].second, 0.0);
}

}  // namespace
}  // namespace kgov::ppr
