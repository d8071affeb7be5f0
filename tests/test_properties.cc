// Cross-module property tests: invariants that tie the similarity layer,
// the encoder, and the optimizer together, checked over randomized
// workloads (seeded, deterministic).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numeric>

#include "cluster/affinity_propagation.h"
#include "cluster/vote_similarity.h"
#include "core/kg_optimizer.h"
#include "core/scoring.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "ppr/eipd_adjoint.h"
#include "ppr/eipd_engine.h"
#include "votes/aggregate.h"
#include "votes/judgment.h"
#include "votes/vote_program.h"
#include "votes/vote_generator.h"
#include "votes/votes_io.h"

namespace kgov {
namespace {

// Reference implementation of Eq. 7: enumerate every walk of length <= L
// explicitly (the first hop is the query link itself) and sum
// P[z]*c*(1-c)^|z|, with the weights in `overrides` replacing the graph's
// along the way. Only viable on tiny graphs; that is the point - it is
// obviously correct.
double BruteForcePhi(
    const graph::WeightedDigraph& g, const ppr::QuerySeed& seed,
    graph::NodeId answer, const ppr::EipdOptions& options,
    const std::unordered_map<graph::EdgeId, double>& overrides) {
  const double c = options.restart;
  double total = 0.0;
  std::function<void(graph::NodeId, int, double)> walk =
      [&](graph::NodeId node, int len, double prob) {
        if (node == answer) total += prob * c * std::pow(1.0 - c, len);
        if (len == options.max_length) return;
        for (const graph::OutEdge& out : g.OutEdges(node)) {
          double w = g.Weight(out.edge);
          auto it = overrides.find(out.edge);
          if (it != overrides.end()) w = it->second;
          if (w <= 0.0) continue;
          walk(out.to, len + 1, prob * w);
        }
      };
  for (const auto& [node, weight] : seed.links) {
    if (weight <= 0.0) continue;
    walk(node, 1, weight);
  }
  return total;
}

// Every edge a variable (the identity index), x starting at the graph's
// weights: how Phi at trial weights reaches the kernel (EipdAdjoint).
struct TrialWeights {
  explicit TrialWeights(const graph::WeightedDigraph& g)
      : var_of_edge(g.NumEdges()), x(g.NumEdges()) {
    std::iota(var_of_edge.begin(), var_of_edge.end(), 0);
    for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) x[e] = g.Weight(e);
  }
  std::vector<int32_t> var_of_edge;
  std::vector<double> x;
};

// The engine at the graph's weights and the adjoint's forward pass at
// trial weights are exactly the truncated walk sum: on graphs small
// enough to enumerate every walk, the level-synchronous kernel and brute
// force agree to machine precision.
TEST(EipdWalkSumProperty, EngineMatchesBruteForceEnumeration) {
  for (uint64_t trial : {101u, 202u, 303u}) {
    Rng rng(trial);
    Result<graph::WeightedDigraph> g = graph::ErdosRenyi(8, 20, rng);
    ASSERT_TRUE(g.ok());

    std::unordered_map<graph::EdgeId, double> overrides;
    TrialWeights weights(*g);
    for (graph::EdgeId e = 0; e < g->NumEdges(); e += 2) {
      overrides[e] = (e % 4 == 0) ? 0.0 : 0.9;
      weights.x[e] = overrides[e];
    }

    ppr::QuerySeed seed;
    seed.links.emplace_back(static_cast<graph::NodeId>(rng.NextIndex(8)),
                            0.6);
    seed.links.emplace_back(static_cast<graph::NodeId>(rng.NextIndex(8)),
                            0.4);

    graph::CsrSnapshot snap(*g);
    std::vector<graph::NodeId> answers;
    for (graph::NodeId v = 0; v < 8; ++v) answers.push_back(v);

    for (int length : {1, 2, 4}) {
      ppr::EipdOptions options;
      options.max_length = length;
      ppr::EipdEngine engine(snap.View(), options);
      const ppr::EipdAdjoint adjoint(snap.View(), options,
                                     weights.var_of_edge.data());
      ppr::AdjointWorkspace ws;
      adjoint.Forward(seed, weights.x.data(), &ws);
      const std::vector<double>& got = ws.lane.phi;
      std::vector<double> plain = engine.Scores(seed, answers).value();
      for (graph::NodeId v = 0; v < 8; ++v) {
        EXPECT_NEAR(got[v], BruteForcePhi(*g, seed, v, options, overrides),
                    1e-14)
            << "trial " << trial << " L=" << length << " answer " << v;
        EXPECT_NEAR(plain[v], BruteForcePhi(*g, seed, v, options, {}), 1e-14)
            << "trial " << trial << " L=" << length << " answer " << v;
      }
    }
  }
}

class RandomWorkloadProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    Result<graph::WeightedDigraph> base =
        graph::ScaleFreeWithTargetEdges(400, 1600, rng);
    ASSERT_TRUE(base.ok());
    votes::SyntheticVoteParams params;
    params.num_queries = 10;
    params.num_answers = 60;
    params.subgraph_nodes = 200;
    params.top_k = 8;
    params.negative_fraction = 0.7;
    // The votes' recorded rankings must come from the same similarity
    // settings the tests evaluate with, or Omega gains a spurious offset.
    params.eipd.max_length = 4;
    Result<votes::SyntheticWorkload> w =
        votes::GenerateSyntheticWorkload(*base, params, rng);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();

    options_.encoder.symbolic.eipd.max_length = 4;
    options_.encoder.is_variable = workload_.EntityEdgePredicate();
  }

  votes::SyntheticWorkload workload_;
  core::OptimizerOptions options_;
};

// Raising any single edge weight never lowers any similarity (walk sums
// have nonnegative coefficients).
TEST_P(RandomWorkloadProperty, SimilarityMonotoneInEdgeWeights) {
  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  graph::CsrSnapshot snap(workload_.graph);
  ppr::EipdEngine engine(snap.View(), eipd);
  const votes::Vote& vote = workload_.votes.front();
  std::vector<double> before =
      engine.Scores(vote.query, vote.answer_list).value();

  TrialWeights raised(workload_.graph);
  const ppr::EipdAdjoint adjoint(snap.View(), eipd,
                                 raised.var_of_edge.data(), vote.answer_list);
  ppr::AdjointWorkspace ws;
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 5; ++trial) {
    graph::EdgeId e = static_cast<graph::EdgeId>(
        rng.NextIndex(workload_.graph.NumEdges()));
    const double weight = workload_.graph.Weight(e);
    raised.x[e] = std::min(1.0, weight * 1.5 + 0.01);
    adjoint.Forward(vote.query, raised.x.data(), &ws);
    raised.x[e] = weight;
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_GE(ws.lane.phi[vote.answer_list[i]], before[i] - 1e-15);
    }
  }
}

// Omega of the *unchanged* graph is identically zero: re-ranking the
// recorded lists under the graph that produced them changes nothing.
TEST_P(RandomWorkloadProperty, UnchangedGraphScoresZeroOmega) {
  core::OmegaResult omega = core::EvaluateOmega(
      graph::CsrSnapshot(workload_.graph).View(), workload_.votes,
      options_.encoder.symbolic.eipd);
  EXPECT_DOUBLE_EQ(omega.total, 0.0);
}

// Optimizing never leaves the graph super-stochastic.
TEST_P(RandomWorkloadProperty, OptimizedGraphStaysSubStochastic) {
  core::KgOptimizer optimizer(&workload_.graph, options_);
  Result<core::OptimizeReport> report =
      optimizer.MultiVoteSolve(workload_.votes);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->optimized.IsSubStochastic(1e-9));
}

// Duplicating every vote three times and aggregating is equivalent to the
// original multi-vote solve with tripled weights - and aggregation itself
// must reproduce the unaggregated optimum (the reduced-form objective is
// linear in per-constraint weights, so scaling all weights uniformly
// rescales lambda2 only; with identical relative weights the optimizer
// follows the same path).
TEST_P(RandomWorkloadProperty, AggregatedDuplicatesMatchExpandedSolve) {
  std::vector<votes::Vote> tripled;
  for (const votes::Vote& vote : workload_.votes) {
    for (int copy = 0; copy < 3; ++copy) tripled.push_back(vote);
  }
  std::vector<votes::Vote> aggregated = votes::AggregateVotes(tripled);
  ASSERT_EQ(aggregated.size(), workload_.votes.size());
  for (const votes::Vote& vote : aggregated) {
    EXPECT_DOUBLE_EQ(vote.weight, 3.0);
  }

  core::OptimizerOptions options = options_;
  options.apply_judgment_filter = false;
  core::KgOptimizer optimizer(&workload_.graph, options);
  Result<core::OptimizeReport> expanded = optimizer.MultiVoteSolve(tripled);
  Result<core::OptimizeReport> compact =
      optimizer.MultiVoteSolve(aggregated);
  ASSERT_TRUE(expanded.ok() && compact.ok());

  core::OmegaResult omega_expanded = core::EvaluateOmega(
      graph::CsrSnapshot(expanded->optimized).View(), workload_.votes,
      options.encoder.symbolic.eipd);
  core::OmegaResult omega_compact = core::EvaluateOmega(
      graph::CsrSnapshot(compact->optimized).View(), workload_.votes,
      options.encoder.symbolic.eipd);
  EXPECT_NEAR(omega_expanded.average, omega_compact.average, 1e-9);
}

// Split-and-merge's votes_satisfied counts the votes whose best answer the
// serving engine ranks first on a copy of the graph carrying their
// cluster's solved weights (before merging and normalization). The oracle
// redoes the filter, the split and each cluster's solve, and requires the
// top two scores to differ, so no exact tie decides a vote.
TEST_P(RandomWorkloadProperty, SplitMergeSatisfiedMatchesSolvedRanking) {
  core::KgOptimizer optimizer(&workload_.graph, options_);
  Result<core::OptimizeReport> report =
      optimizer.SplitMergeSolve(workload_.votes);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->failed_clusters.empty());

  const graph::WeightedDigraph& g = workload_.graph;
  const ppr::EipdOptions& eipd = options_.encoder.symbolic.eipd;
  const graph::CsrSnapshot snapshot(g);
  votes::JudgmentOptions judgment;
  judgment.eipd = eipd;
  judgment.is_variable = options_.encoder.is_variable;
  const std::vector<votes::Vote> filtered =
      votes::JudgmentFilter(&g, snapshot.View(), judgment)
          .FilterVotes(workload_.votes);
  Result<cluster::ApResult> clustering = cluster::AffinityPropagation(
      cluster::VoteSimilarityMatrix(
          votes::VoteEdgeSets(snapshot.View(), eipd, filtered)),
      options_.ap);
  ASSERT_TRUE(clustering.ok());
  std::vector<std::vector<votes::Vote>> groups(clustering->exemplars.size());
  for (size_t i = 0; i < filtered.size(); ++i) {
    groups[clustering->labels[i]].push_back(filtered[i]);
  }
  ASSERT_EQ(groups.size(), report->num_clusters);

  const math::SgpSolver solver(options_.sgp);
  size_t ranked_first = 0;
  for (size_t c = 0; c < groups.size(); ++c) {
    if (groups[c].empty()) continue;
    Result<votes::EncodedProgram> program = votes::EncodeVoteProgram(
        g, snapshot.View(), options_.encoder, groups[c]);
    ASSERT_TRUE(program.ok()) << program.status();
    const math::SgpSolution solution = solver.Solve(program->problem);
    ASSERT_TRUE(solution.status.ok()) << solution.status;
    graph::WeightedDigraph solved = g;
    program->variables.ApplyValues(solution.x, &solved);
    const graph::CsrSnapshot solved_snapshot(solved);
    const ppr::EipdEngine engine(solved_snapshot.View(), eipd);
    for (const votes::Vote& vote : groups[c]) {
      std::vector<ppr::ScoredAnswer> ranked =
          engine.Rank(vote.query, vote.answer_list, 2).value();
      ASSERT_EQ(ranked.size(), 2u);
      ASSERT_NE(ranked[0].score, ranked[1].score)
          << "vote " << vote.id << " ties at the top";
      if (ranked[0].node == vote.best_answer) ++ranked_first;
    }
  }
  EXPECT_EQ(report->votes_satisfied, ranked_first);
  EXPECT_GT(ranked_first, 0u);
}

// Vote persistence round-trips the whole workload.
TEST_P(RandomWorkloadProperty, VotesRoundTripThroughDisk) {
  std::string path = ::testing::TempDir() + "kgov_prop_votes_" +
                     std::to_string(GetParam()) + ".txt";
  ASSERT_TRUE(votes::SaveVotes(workload_.votes, path).ok());
  Result<std::vector<votes::Vote>> loaded = votes::LoadVotes(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), workload_.votes.size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ((*loaded)[i].answer_list, workload_.votes[i].answer_list);
    EXPECT_EQ((*loaded)[i].best_answer, workload_.votes[i].best_answer);
    ASSERT_EQ((*loaded)[i].query.links.size(),
              workload_.votes[i].query.links.size());
    for (size_t l = 0; l < (*loaded)[i].query.links.size(); ++l) {
      EXPECT_EQ((*loaded)[i].query.links[l].first,
                workload_.votes[i].query.links[l].first);
      EXPECT_NEAR((*loaded)[i].query.links[l].second,
                  workload_.votes[i].query.links[l].second, 1e-12);
    }
  }
  std::remove(path.c_str());
}

// The optimizer is deterministic: same input, same output graph.
TEST_P(RandomWorkloadProperty, OptimizerDeterministic) {
  core::KgOptimizer optimizer(&workload_.graph, options_);
  Result<core::OptimizeReport> a = optimizer.MultiVoteSolve(workload_.votes);
  Result<core::OptimizeReport> b = optimizer.MultiVoteSolve(workload_.votes);
  ASSERT_TRUE(a.ok() && b.ok());
  for (graph::EdgeId e = 0; e < a->optimized.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(a->optimized.Weight(e), b->optimized.Weight(e));
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, RandomWorkloadProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace kgov
