#include "ppr/symbolic_eipd.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/csr.h"
#include "graph/generators.h"
#include "ppr/eipd_engine.h"

namespace kgov::ppr {
namespace {

using graph::WeightedDigraph;

// One-shot numeric Phi(seed, answer) over the live graph's current
// weights, via a throwaway snapshot + engine.
double NumericSimilarity(const WeightedDigraph& g, const QuerySeed& seed,
                         graph::NodeId answer, const EipdOptions& options) {
  graph::CsrSnapshot snap(g);
  EipdEngine engine(snap.View(), options);
  StatusOr<std::vector<double>> scores = engine.Scores(seed, {answer});
  EXPECT_TRUE(scores.ok()) << scores.status().ToString();
  return scores.value()[0];
}

WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(2, 1, 0.4).ok());
  return g;
}

QuerySeed SeedAt(graph::NodeId node) {
  QuerySeed seed;
  seed.links.emplace_back(node, 1.0);
  return seed;
}

// Key round-trip property: evaluating the collected signomial at the
// current edge weights reproduces the numeric extended inverse P-distance.
TEST(SymbolicEipdTest, SignomialEvaluatesToNumericSimilarity) {
  WeightedDigraph g = MakeFixture();
  SymbolicEipdOptions options;
  options.eipd.max_length = 4;
  SymbolicEipd symbolic(&g, nullptr, options);
  EdgeVariableMap vars;
  std::vector<SymbolicAnswer> answers =
      symbolic.Collect(SeedAt(0), {3, 4}, &vars);

  std::vector<double> x = vars.InitialValues(g);
  for (const SymbolicAnswer& answer : answers) {
    double direct = NumericSimilarity(g, SeedAt(0), answer.answer,
                                      options.eipd);
    EXPECT_NEAR(answer.similarity.Evaluate(x), direct, 1e-12);
  }
}

TEST(SymbolicEipdTest, TermPerWalk) {
  WeightedDigraph g = MakeFixture();
  SymbolicEipdOptions options;
  options.eipd.max_length = 4;
  SymbolicEipd symbolic(&g, nullptr, options);
  EdgeVariableMap vars;
  std::vector<SymbolicAnswer> answers =
      symbolic.Collect(SeedAt(0), {3, 4}, &vars);
  // Node 3 is reached by two distinct walks, node 4 by one.
  EXPECT_EQ(answers[0].similarity.NumTerms(), 2u);
  EXPECT_EQ(answers[1].similarity.NumTerms(), 1u);
}

TEST(SymbolicEipdTest, RegistersOnlyTraversedVariableEdges) {
  WeightedDigraph g = MakeFixture();
  SymbolicEipd symbolic(&g, nullptr, {});
  EdgeVariableMap vars;
  symbolic.Collect(SeedAt(1), {3}, &vars);  // only walk 1->3
  EXPECT_EQ(vars.NumVariables(), 1u);
  EXPECT_EQ(vars.EdgeOf(0), *g.FindEdge(1, 3));
}

TEST(SymbolicEipdTest, PathEdgesCollectAllWalkEdges) {
  WeightedDigraph g = MakeFixture();
  SymbolicEipdOptions options;
  options.eipd.max_length = 4;
  SymbolicEipd symbolic(&g, nullptr, options);
  EdgeVariableMap vars;
  std::vector<SymbolicAnswer> answers =
      symbolic.Collect(SeedAt(0), {3}, &vars);
  // Walks to 3 traverse edges 0->1, 1->3, 0->2, 2->1.
  EXPECT_EQ(answers[0].path_edges.size(), 4u);
  EXPECT_TRUE(answers[0].path_edges.count(*g.FindEdge(0, 1)) > 0);
  EXPECT_TRUE(answers[0].path_edges.count(*g.FindEdge(2, 1)) > 0);
  EXPECT_FALSE(answers[0].path_edges.count(*g.FindEdge(2, 4)) > 0);
}

TEST(SymbolicEipdTest, FixedEdgePredicateFoldsWeightsIntoCoefficients) {
  WeightedDigraph g = MakeFixture();
  graph::EdgeId fixed_edge = *g.FindEdge(1, 3);
  SymbolicEipdOptions options;
  options.eipd.max_length = 3;
  SymbolicEipd symbolic(
      &g,
      [fixed_edge](const WeightedDigraph&, graph::EdgeId e) {
        return e != fixed_edge;
      },
      options);
  EdgeVariableMap vars;
  std::vector<SymbolicAnswer> answers =
      symbolic.Collect(SeedAt(0), {3}, &vars);
  // Only the walk q->0->1->3 fits in L=3; edge 1->3 is fixed, so only
  // edge 0->1 becomes a variable.
  ASSERT_EQ(vars.NumVariables(), 1u);
  EXPECT_EQ(vars.EdgeOf(0), *g.FindEdge(0, 1));
  // Coefficient folds in the fixed weight (1.0) and c(1-c)^3.
  const double c = 0.15;
  ASSERT_EQ(answers[0].similarity.NumTerms(), 1u);
  EXPECT_NEAR(answers[0].similarity.terms()[0].coefficient(),
              c * std::pow(1 - c, 3) * 1.0, 1e-12);
}

TEST(SymbolicEipdTest, SymbolicSimilarityTracksWeightChanges) {
  WeightedDigraph g = MakeFixture();
  SymbolicEipdOptions options;
  options.eipd.max_length = 4;
  SymbolicEipd symbolic(&g, nullptr, options);
  EdgeVariableMap vars;
  std::vector<SymbolicAnswer> answers =
      symbolic.Collect(SeedAt(0), {3}, &vars);

  // Change a weight, re-evaluate the signomial at the new values, and
  // compare with a fresh numeric evaluation.
  graph::EdgeId e01 = *g.FindEdge(0, 1);
  g.SetWeight(e01, 0.9);
  std::vector<double> x = vars.InitialValues(g);
  EXPECT_NEAR(answers[0].similarity.Evaluate(x),
              NumericSimilarity(g, SeedAt(0), 3, options.eipd), 1e-12);
}

TEST(SymbolicEipdTest, RepeatedEdgeBecomesSquaredVariable) {
  // 2-cycle walk 0->1->0->1 traverses 0->1 twice within L=4.
  WeightedDigraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  SymbolicEipdOptions options;
  options.eipd.max_length = 4;
  SymbolicEipd symbolic(&g, nullptr, options);
  EdgeVariableMap vars;
  std::vector<SymbolicAnswer> answers =
      symbolic.Collect(SeedAt(0), {2}, &vars);
  // Walks to 2: q->0->1->2 (len 3) and q->0->1->0->1->2 (len 5 > L). So
  // only one term... extend L to 5 to include the squared walk.
  EXPECT_EQ(answers[0].similarity.NumTerms(), 1u);

  options.eipd.max_length = 5;
  SymbolicEipd symbolic5(&g, nullptr, options);
  EdgeVariableMap vars5;
  std::vector<SymbolicAnswer> answers5 =
      symbolic5.Collect(SeedAt(0), {2}, &vars5);
  ASSERT_EQ(answers5[0].similarity.NumTerms(), 2u);
  // One of the terms carries x_{0->1}^2.
  math::VarId v01 = *vars5.Find(*g.FindEdge(0, 1));
  bool found_squared = false;
  for (const math::Monomial& term : answers5[0].similarity.terms()) {
    if (term.ExponentOf(v01) == 2.0) found_squared = true;
  }
  EXPECT_TRUE(found_squared);
}

TEST(SymbolicEipdTest, MinPathMassPrunes) {
  WeightedDigraph g = MakeFixture();
  SymbolicEipdOptions options;
  options.eipd.max_length = 4;
  options.min_path_mass = 0.25;  // kills the 0.2-mass walk via node 2
  SymbolicEipd symbolic(&g, nullptr, options);
  EdgeVariableMap vars;
  std::vector<SymbolicAnswer> answers =
      symbolic.Collect(SeedAt(0), {3}, &vars);
  EXPECT_EQ(answers[0].similarity.NumTerms(), 1u);
}

TEST(SymbolicEipdTest, AgreesWithNumericOnRandomGraphs) {
  for (uint64_t seed_value : {11ull, 22ull, 33ull}) {
    Rng rng(seed_value);
    Result<WeightedDigraph> g = graph::ErdosRenyi(15, 60, rng);
    ASSERT_TRUE(g.ok());
    QuerySeed seed = QuerySeed::FromNode(*g, 0);
    if (seed.empty()) continue;

    SymbolicEipdOptions options;
    options.eipd.max_length = 5;
    SymbolicEipd symbolic(&*g, nullptr, options);
    EdgeVariableMap vars;
    std::vector<graph::NodeId> targets{3, 7, 11};
    std::vector<SymbolicAnswer> answers =
        symbolic.Collect(seed, targets, &vars);

    graph::CsrSnapshot snap(*g);
    EipdEngine numeric(snap.View(), options.eipd);
    std::vector<double> x = vars.InitialValues(*g);
    StatusOr<std::vector<double>> direct = numeric.Scores(seed, targets);
    ASSERT_TRUE(direct.ok());
    for (size_t i = 0; i < targets.size(); ++i) {
      EXPECT_NEAR(answers[i].similarity.Evaluate(x), (*direct)[i], 1e-10);
    }
  }
}

}  // namespace
}  // namespace kgov::ppr
