#include "core/kg_optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/fault_injection.h"
#include "core/scoring.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "ppr/eipd_engine.h"
#include "votes/vote_generator.h"

namespace kgov::core {
namespace {

using graph::WeightedDigraph;

// One-shot Phi(seed, answer) via a snapshot of the given live graph.
double Similarity(const WeightedDigraph& g, const ppr::QuerySeed& seed,
                  graph::NodeId answer, const ppr::EipdOptions& options) {
  graph::CsrSnapshot snap(g);
  ppr::EipdEngine engine(snap.View(), options);
  return engine.Scores(seed, {answer}).value()[0];
}

// Query 0 reaches answer 3 via node 1 and answer 4 via node 2. Under the
// initial weights answer 3 ranks first.
WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.0).ok());
  return g;
}

votes::Vote MakeVote(graph::NodeId best, uint32_t id = 0) {
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};
  vote.best_answer = best;
  return vote;
}

OptimizerOptions SmallOptions() {
  OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  return options;
}

TEST(KgOptimizerTest, SingleVoteFlipsRanking) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  Result<OptimizeReport> report =
      optimizer.SingleVoteSolve({MakeVote(4)});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->votes_encoded, 1u);

  // After optimization the voted answer must rank first.
  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  votes::Vote vote = MakeVote(4);
  double s3 = Similarity(report->optimized, vote.query, 3, eipd);
  double s4 = Similarity(report->optimized, vote.query, 4, eipd);
  EXPECT_GT(s4, s3);

  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(report->optimized).View(), {vote}, eipd);
  EXPECT_DOUBLE_EQ(omega.total, 1.0);
}

TEST(KgOptimizerTest, SingleVoteIgnoresPositiveVotes) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  Result<OptimizeReport> report =
      optimizer.SingleVoteSolve({MakeVote(3)});  // positive
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->votes_encoded, 0u);
  // Graph unchanged.
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(report->optimized.Weight(e), g.Weight(e));
  }
}

TEST(KgOptimizerTest, InputGraphNeverMutated) {
  WeightedDigraph g = MakeFixture();
  WeightedDigraph snapshot = g;
  KgOptimizer optimizer(&g, SmallOptions());
  ASSERT_TRUE(optimizer.SingleVoteSolve({MakeVote(4)}).ok());
  ASSERT_TRUE(optimizer.MultiVoteSolve({MakeVote(4)}).ok());
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(g.Weight(e), snapshot.Weight(e));
  }
}

TEST(KgOptimizerTest, MultiVoteFlipsRanking) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  Result<OptimizeReport> report = optimizer.MultiVoteSolve({MakeVote(4)});
  ASSERT_TRUE(report.ok());
  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(report->optimized).View(), {MakeVote(4)},
      {.max_length = 4});
  EXPECT_DOUBLE_EQ(omega.total, 1.0);
  EXPECT_EQ(report->constraints_total, 1);
  EXPECT_EQ(report->constraints_satisfied, 1);
}

TEST(KgOptimizerTest, MultiVoteRespectsPositiveVotes) {
  // One negative vote (4 best) and one positive vote (3 best) for the same
  // query conflict; the solver should satisfy as many as possible and not
  // crash. Omega should not be strongly negative.
  WeightedDigraph g = MakeFixture();
  OptimizerOptions options = SmallOptions();
  options.apply_judgment_filter = false;
  KgOptimizer optimizer(&g, options);
  Result<OptimizeReport> report =
      optimizer.MultiVoteSolve({MakeVote(4, 0), MakeVote(3, 1)});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->votes_encoded, 2u);
  EXPECT_GE(report->constraints_satisfied, 1);
}

TEST(KgOptimizerTest, MultiVoteEmptyAfterFilterIsError) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  votes::Vote bad;
  EXPECT_FALSE(optimizer.MultiVoteSolve({bad}).ok());
}

TEST(KgOptimizerTest, SplitMergeCountsAnExactTieAsUnsatisfied) {
  // A positive vote whose two answers tie exactly, with no edge the
  // solver may move: its constraint reads g = 0, which Eq. 13 does not
  // satisfy, whatever order a ranking would break the tie in.
  WeightedDigraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 3, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 4, 0.5).ok());
  OptimizerOptions options = SmallOptions();
  options.apply_judgment_filter = false;
  options.encoder.is_variable = [](const WeightedDigraph&, graph::EdgeId) {
    return false;
  };
  KgOptimizer optimizer(&g, options);
  Result<OptimizeReport> report = optimizer.SplitMergeSolve({MakeVote(3)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->votes_encoded, 1u);
  EXPECT_EQ(report->votes_satisfied, 0u);
}

TEST(KgOptimizerTest, WeightChangesReported) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  Result<OptimizeReport> report = optimizer.MultiVoteSolve({MakeVote(4)});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->weight_changes.empty());
}

TEST(KgOptimizerTest, NormalizationKeepsGraphStochastic) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  Result<OptimizeReport> report = optimizer.MultiVoteSolve({MakeVote(4)});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->optimized.IsSubStochastic(1e-9));
}

TEST(KgOptimizerTest, SingleVoteBestEffortSurvivesSolverFailure) {
  // Algorithm 1 applies the solver's best-effort point even when the solve
  // reports failure; force every solve to fail and check the report stays
  // well-formed with finite, sub-stochastic weights.
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  ScopedFault fault(FaultSite::kSolveNonConvergence, {.probability = 1.0});
  Result<OptimizeReport> report = optimizer.SingleVoteSolve({MakeVote(4)});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->votes_encoded, 1u);
  EXPECT_GT(report->constraints_total, 0);
  // The injected failure returns the initial point, so nothing is
  // satisfied and the graph keeps its original weights.
  EXPECT_EQ(report->constraints_satisfied, 0);
  for (graph::EdgeId e = 0; e < report->optimized.NumEdges(); ++e) {
    EXPECT_TRUE(std::isfinite(report->optimized.Weight(e)));
  }
  EXPECT_TRUE(report->optimized.IsSubStochastic(1e-9));
}

TEST(KgOptimizerTest, SingleVoteBestEffortSurvivesNanGradients) {
  // NaN gradients on every evaluation: the sanitized solutions keep the
  // pipeline alive and the output graph finite.
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  ScopedFault fault(FaultSite::kNanGradient, {.probability = 1.0});
  Result<OptimizeReport> report = optimizer.SingleVoteSolve({MakeVote(4)});
  ASSERT_TRUE(report.ok());
  for (graph::EdgeId e = 0; e < report->optimized.NumEdges(); ++e) {
    EXPECT_TRUE(std::isfinite(report->optimized.Weight(e)));
  }
  EXPECT_TRUE(report->optimized.IsSubStochastic(1e-9));
}

TEST(KgOptimizerTest, MultiVoteReportsNoClusterFailures) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  Result<OptimizeReport> report = optimizer.MultiVoteSolve({MakeVote(4)});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failed_clusters.empty());
  EXPECT_TRUE(report->quarantined_votes.empty());
}

// MakeFixture's component twice, on nodes 0-4 and 5-9. A vote against
// each component has a disjoint edge set, so with a positive affinity
// preference split-and-merge solves each in its own cluster.
WeightedDigraph MakeTwoComponentFixture() {
  WeightedDigraph g(10);
  for (graph::NodeId base : {0u, 5u}) {
    EXPECT_TRUE(g.AddEdge(base, base + 1, 0.6).ok());
    EXPECT_TRUE(g.AddEdge(base, base + 2, 0.4).ok());
    EXPECT_TRUE(g.AddEdge(base + 1, base + 3, 1.0).ok());
    EXPECT_TRUE(g.AddEdge(base + 2, base + 4, 1.0).ok());
  }
  return g;
}

// A vote on the component rooted at `base` preferring its second answer.
votes::Vote MakeComponentVote(graph::NodeId base, uint32_t id) {
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(base, 1.0);
  vote.answer_list = {base + 3, base + 4};
  vote.best_answer = base + 4;
  return vote;
}

// The one rule for a failed solve: it is never retried, and it fails its
// unit of work in both multi-vote strategies - the batch in
// MultiVoteSolve, the cluster in split-and-merge (the batch only when
// every cluster fails). No point of an unsolved program is applied.
TEST(KgOptimizerTest, UnsolvedProgramFailsBothStrategies) {
  WeightedDigraph g = MakeTwoComponentFixture();
  OptimizerOptions options = SmallOptions();
  options.apply_judgment_filter = false;
  options.ap.preference = 0.5;
  KgOptimizer optimizer(&g, options);
  const std::vector<votes::Vote> votes = {MakeComponentVote(0, 1),
                                          MakeComponentVote(5, 2)};
  {
    ScopedFault fault(FaultSite::kSolveNonConvergence, {.probability = 1.0});
    Result<OptimizeReport> multi = optimizer.MultiVoteSolve(votes);
    EXPECT_TRUE(multi.status().IsNotConverged()) << multi.status();
    EXPECT_EQ(FaultInjector::Global().Fires(FaultSite::kSolveNonConvergence),
              1);
    Result<OptimizeReport> split = optimizer.SplitMergeSolve(votes);
    EXPECT_TRUE(split.status().IsNotConverged()) << split.status();
  }
  // One failed solve of two: its cluster is quarantined, the other applied.
  ScopedFault fault(FaultSite::kSolveNonConvergence,
                    {.probability = 1.0, .max_fires = 1});
  Result<OptimizeReport> split = optimizer.SplitMergeSolve(votes);
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_EQ(split->num_clusters, 2u);
  ASSERT_EQ(split->failed_clusters.size(), 1u);
  EXPECT_TRUE(split->failed_clusters[0].status.IsNotConverged());
  EXPECT_EQ(split->quarantined_votes.size(), 1u);
  EXPECT_FALSE(split->weight_changes.empty());
}

TEST(KgOptimizerTest, DistributedRequiresPool) {
  WeightedDigraph g = MakeFixture();
  KgOptimizer optimizer(&g, SmallOptions());
  EXPECT_FALSE(
      optimizer.DistributedSplitMergeSolve({MakeVote(4)}, nullptr).ok());
}

// Integration over a synthetic workload: all four strategies improve the
// graph score for negative votes.
class StrategyIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2024);
    Result<WeightedDigraph> base =
        graph::ScaleFreeWithTargetEdges(300, 1200, rng);
    ASSERT_TRUE(base.ok());
    votes::SyntheticVoteParams params;
    params.num_queries = 12;
    params.num_answers = 40;
    params.subgraph_nodes = 150;
    params.top_k = 8;
    params.avg_negative_rank = 4.0;
    params.negative_fraction = 0.7;
    params.eipd.max_length = 4;  // match the evaluation settings below
    Result<votes::SyntheticWorkload> w =
        votes::GenerateSyntheticWorkload(*base, params, rng);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();

    options_.encoder.symbolic.eipd.max_length = 4;
    options_.encoder.is_variable = workload_.EntityEdgePredicate();
  }

  votes::SyntheticWorkload workload_;
  OptimizerOptions options_;
};

TEST_F(StrategyIntegrationTest, MultiVoteImprovesOmega) {
  KgOptimizer optimizer(&workload_.graph, options_);
  Result<OptimizeReport> report =
      optimizer.MultiVoteSolve(workload_.votes);
  ASSERT_TRUE(report.ok());
  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(report->optimized).View(), workload_.votes,
      options_.encoder.symbolic.eipd);
  EXPECT_GT(omega.total, 0.0);
}

TEST_F(StrategyIntegrationTest, SplitMergeImprovesOmega) {
  KgOptimizer optimizer(&workload_.graph, options_);
  Result<OptimizeReport> report =
      optimizer.SplitMergeSolve(workload_.votes);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->num_clusters, 1u);
  OmegaResult omega = EvaluateOmega(
      graph::CsrSnapshot(report->optimized).View(), workload_.votes,
      options_.encoder.symbolic.eipd);
  EXPECT_GT(omega.total, 0.0);
}

TEST_F(StrategyIntegrationTest, DistributedMatchesSequentialSplitMerge) {
  KgOptimizer optimizer(&workload_.graph, options_);
  Result<OptimizeReport> sequential =
      optimizer.SplitMergeSolve(workload_.votes);
  ASSERT_TRUE(sequential.ok());

  ThreadPool pool(4);
  Result<OptimizeReport> distributed =
      optimizer.DistributedSplitMergeSolve(workload_.votes, &pool);
  ASSERT_TRUE(distributed.ok());

  // Cluster solves are deterministic, so both paths produce identical
  // optimized weights.
  ASSERT_EQ(sequential->optimized.NumEdges(),
            distributed->optimized.NumEdges());
  for (graph::EdgeId e = 0; e < sequential->optimized.NumEdges(); ++e) {
    EXPECT_NEAR(sequential->optimized.Weight(e),
                distributed->optimized.Weight(e), 1e-12);
  }
  EXPECT_EQ(sequential->num_clusters, distributed->num_clusters);
  // Each cluster counts its satisfied votes on the thread that solved it.
  EXPECT_EQ(sequential->votes_satisfied, distributed->votes_satisfied);
}

TEST_F(StrategyIntegrationTest, ClusterTimesReported) {
  KgOptimizer optimizer(&workload_.graph, options_);
  Result<OptimizeReport> report =
      optimizer.SplitMergeSolve(workload_.votes);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cluster_seconds.size(), report->num_clusters);
  double total = 0.0;
  for (double t : report->cluster_seconds) {
    EXPECT_GE(t, 0.0);
    total += t;
  }
  // Sequential solves: wall time covers the per-cluster sum.
  EXPECT_LE(total, report->solve_seconds + 0.5);
}

TEST_F(StrategyIntegrationTest, SingleVoteHandlesWorkload) {
  KgOptimizer optimizer(&workload_.graph, options_);
  Result<OptimizeReport> report =
      optimizer.SingleVoteSolve(workload_.votes);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->votes_encoded, 0u);
  EXPECT_TRUE(report->optimized.IsSubStochastic(1e-6));
}

}  // namespace
}  // namespace kgov::core
