#include "core/scoring.h"

#include <gtest/gtest.h>

#include "graph/csr.h"
namespace kgov::core {
namespace {

using graph::WeightedDigraph;

// Query 0 reaches answer 3 via node 1 and answer 4 via node 2.
WeightedDigraph MakeFixture(double w01 = 0.6, double w02 = 0.4) {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, w01).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, w02).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.0).ok());
  return g;
}

votes::Vote MakeVote(graph::NodeId best) {
  votes::Vote vote;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};  // ranking under w01 > w02
  vote.best_answer = best;
  return vote;
}

TEST(ScoringTest, UnchangedGraphScoresZero) {
  WeightedDigraph g = MakeFixture();
  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(g).View(), {MakeVote(4)});
  EXPECT_DOUBLE_EQ(omega.total, 0.0);
  EXPECT_EQ(omega.before_ranks, (std::vector<int>{2}));
  EXPECT_EQ(omega.after_ranks, (std::vector<int>{2}));
}

TEST(ScoringTest, ImprovedGraphScoresPositive) {
  // Swap the weights: answer 4 now outranks 3.
  WeightedDigraph improved = MakeFixture(0.4, 0.6);
  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(improved).View(), {MakeVote(4)});
  EXPECT_DOUBLE_EQ(omega.total, 1.0);  // rank 2 -> 1
  EXPECT_DOUBLE_EQ(omega.average, 1.0);
}

TEST(ScoringTest, DegradedPositiveVoteScoresNegative) {
  WeightedDigraph degraded = MakeFixture(0.4, 0.6);
  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(degraded).View(), {MakeVote(3)});
  EXPECT_DOUBLE_EQ(omega.total, -1.0);  // rank 1 -> 2
}

TEST(ScoringTest, AverageOverMixedVotes) {
  WeightedDigraph improved = MakeFixture(0.4, 0.6);
  OmegaResult omega = EvaluateOmega(graph::CsrSnapshot(improved).View(),
                                    {MakeVote(4), MakeVote(3)});
  EXPECT_DOUBLE_EQ(omega.total, 0.0);  // +1 and -1
  EXPECT_DOUBLE_EQ(omega.average, 0.0);
  EXPECT_EQ(omega.before_ranks.size(), 2u);
}

TEST(ScoringTest, MalformedVotesSkipped) {
  WeightedDigraph g = MakeFixture();
  votes::Vote bad;
  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(g).View(), {bad, MakeVote(4)});
  EXPECT_EQ(omega.before_ranks.size(), 1u);
}

TEST(ScoringTest, EmptyVoteSet) {
  WeightedDigraph g = MakeFixture();
  OmegaResult omega = EvaluateOmega(graph::CsrSnapshot(g).View(), {});
  EXPECT_DOUBLE_EQ(omega.total, 0.0);
  EXPECT_DOUBLE_EQ(omega.average, 0.0);
}

}  // namespace
}  // namespace kgov::core
