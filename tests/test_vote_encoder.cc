#include "votes/vote_encoder.h"

#include <gtest/gtest.h>

#include "graph/csr.h"
#include "ppr/eipd_engine.h"

namespace kgov::votes {
namespace {

using graph::WeightedDigraph;

// One-shot Phi(seed, answer) via a snapshot of the given live graph.
double Similarity(const WeightedDigraph& g, const ppr::QuerySeed& seed,
                  graph::NodeId answer, const ppr::EipdOptions& options) {
  graph::CsrSnapshot snap(g);
  ppr::EipdEngine engine(snap.View(), options);
  return engine.Scores(seed, {answer}).value()[0];
}

// Fixture graph where the query reaches answers 3 and 4.
//   0 -> 1 (0.5), 0 -> 2 (0.5), 1 -> 3 (1.0), 2 -> 4 (0.6), 2 -> 1 (0.4)
WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(2, 1, 0.4).ok());
  return g;
}

Vote MakeNegativeVote(uint32_t id = 0) {
  Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};  // 3 ranks first under the fixture weights
  vote.best_answer = 4;       // user prefers the runner-up
  return vote;
}

Vote MakePositiveVote(uint32_t id = 1) {
  Vote vote = MakeNegativeVote(id);
  vote.best_answer = 3;
  return vote;
}

EncoderOptions DefaultOptions() {
  EncoderOptions options;
  options.symbolic.eipd.max_length = 4;
  return options;
}

TEST(VoteEncoderTest, SingleNegativeVoteProducesKMinusOneConstraints) {
  WeightedDigraph g = MakeFixture();
  VoteEncoder encoder(&g, DefaultOptions());
  Result<EncodedProgram> program = encoder.EncodeBatch({MakeNegativeVote()});
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->problem.constraints().size(), 1u);  // k=2 answers
  EXPECT_EQ(program->encoded_vote_ids, (std::vector<uint32_t>{0}));
}

TEST(VoteEncoderTest, ConstraintSignomialIsSimilarityDifference) {
  // g = S(vq, a_other) - S(vq, a_best); at the initial weights the negative
  // vote's constraint must be violated (g > 0) because the best answer
  // currently ranks below the other.
  WeightedDigraph g = MakeFixture();
  VoteEncoder encoder(&g, DefaultOptions());
  Result<EncodedProgram> program = encoder.EncodeBatch({MakeNegativeVote()});
  ASSERT_TRUE(program.ok());
  std::vector<double> x0 = program->problem.initial();
  double g_value = program->problem.constraints()[0].g.Evaluate(x0);

  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  Vote vote = MakeNegativeVote();
  double expected = Similarity(g, vote.query, 3, eipd) -
                    Similarity(g, vote.query, 4, eipd);
  EXPECT_NEAR(g_value, expected, 1e-10);
  EXPECT_GT(g_value, 0.0);
}

TEST(VoteEncoderTest, VariablesInitializedFromGraphWeights) {
  WeightedDigraph g = MakeFixture();
  VoteEncoder encoder(&g, DefaultOptions());
  Result<EncodedProgram> program = encoder.EncodeBatch({MakeNegativeVote()});
  ASSERT_TRUE(program.ok());
  const auto& vars = program->variables;
  for (size_t v = 0; v < vars.NumVariables(); ++v) {
    EXPECT_DOUBLE_EQ(program->problem.initial()[v],
                     g.Weight(vars.EdgeOf(static_cast<math::VarId>(v))));
  }
}

TEST(VoteEncoderTest, BoundsComeFromOptions) {
  WeightedDigraph g = MakeFixture();
  EncoderOptions options = DefaultOptions();
  options.weight_lower_bound = 0.05;
  options.weight_upper_bound = 0.95;
  VoteEncoder encoder(&g, options);
  Result<EncodedProgram> program = encoder.EncodeBatch({MakeNegativeVote()});
  ASSERT_TRUE(program.ok());
  for (double lo : program->problem.bounds().lower) {
    EXPECT_DOUBLE_EQ(lo, 0.05);
  }
  for (double hi : program->problem.bounds().upper) {
    EXPECT_DOUBLE_EQ(hi, 0.95);
  }
}

TEST(VoteEncoderTest, InitialValueClampedIntoBox) {
  WeightedDigraph g = MakeFixture();
  g.SetWeight(*g.FindEdge(1, 3), 0.0);  // below the lower bound
  EncoderOptions options = DefaultOptions();
  options.weight_lower_bound = 0.01;
  VoteEncoder encoder(&g, options);
  Result<EncodedProgram> program = encoder.EncodeBatch({MakeNegativeVote()});
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->problem.Validate().ok());
}

TEST(VoteEncoderTest, BatchCombinesVotes) {
  WeightedDigraph g = MakeFixture();
  VoteEncoder encoder(&g, DefaultOptions());
  Result<EncodedProgram> program = encoder.EncodeBatch(
      {MakeNegativeVote(0), MakePositiveVote(1)});
  ASSERT_TRUE(program.ok());
  // Each vote contributes k-1 = 1 constraint.
  EXPECT_EQ(program->problem.constraints().size(), 2u);
  EXPECT_EQ(program->encoded_vote_ids, (std::vector<uint32_t>{0, 1}));
}

TEST(VoteEncoderTest, BatchSkipsMalformedVotes) {
  WeightedDigraph g = MakeFixture();
  VoteEncoder encoder(&g, DefaultOptions());
  Vote bad;
  bad.id = 7;
  Result<EncodedProgram> program =
      encoder.EncodeBatch({bad, MakeNegativeVote(3)});
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->encoded_vote_ids, (std::vector<uint32_t>{3}));
}

TEST(VoteEncoderTest, BatchAllMalformedIsError) {
  WeightedDigraph g = MakeFixture();
  VoteEncoder encoder(&g, DefaultOptions());
  Vote bad;
  EXPECT_FALSE(encoder.EncodeBatch({bad}).ok());
}

TEST(VoteEncoderTest, PositiveVoteConstraintInitiallySatisfied) {
  WeightedDigraph g = MakeFixture();
  VoteEncoder encoder(&g, DefaultOptions());
  Result<EncodedProgram> program =
      encoder.EncodeBatch({MakePositiveVote()});
  ASSERT_TRUE(program.ok());
  double g_value = program->problem.constraints()[0].g.Evaluate(
      program->problem.initial());
  EXPECT_LT(g_value, 0.0);  // confirmation: already satisfied
}

TEST(VoteEncoderTest, FixedEdgePredicateShrinksVariableSpace) {
  WeightedDigraph g = MakeFixture();
  EncoderOptions options = DefaultOptions();
  // Only edges out of node 0 are optimizable.
  options.is_variable = [](const WeightedDigraph& gr, graph::EdgeId e) {
    return gr.edge(e).from == 0;
  };
  VoteEncoder encoder(&g, options);
  Result<EncodedProgram> program = encoder.EncodeBatch({MakeNegativeVote()});
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->variables.NumVariables(), 2u);  // 0->1 and 0->2
}

}  // namespace
}  // namespace kgov::votes
