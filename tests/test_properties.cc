// Cross-module property tests: invariants that tie the similarity layer,
// the encoder, and the optimizer together, checked over randomized
// workloads (seeded, deterministic).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/kg_optimizer.h"
#include "core/scoring.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "ppr/eipd_engine.h"
#include "votes/aggregate.h"
#include "votes/vote_generator.h"
#include "votes/votes_io.h"

namespace kgov {
namespace {

// Reference implementation of Eq. 7: enumerate every walk of length <= L
// explicitly (the first hop is the query link itself) and sum
// P[z]*c*(1-c)^|z|, applying the override weights along the way. Only
// viable on tiny graphs; that is the point - it is obviously correct.
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

// The unified engine (with overrides) is exactly the truncated walk sum:
// on graphs small enough to enumerate every walk, the level-synchronous
// kernel and brute force agree to machine precision.
TEST(EipdWalkSumProperty, EngineMatchesBruteForceEnumeration) {
  for (uint64_t trial : {101u, 202u, 303u}) {
    Rng rng(trial);
    Result<graph::WeightedDigraph> g = graph::ErdosRenyi(8, 20, rng);
    ASSERT_TRUE(g.ok());

    std::unordered_map<graph::EdgeId, double> overrides;
    for (graph::EdgeId e = 0; e < g->NumEdges(); e += 2) {
      overrides[e] = (e % 4 == 0) ? 0.0 : 0.9;
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
      std::vector<double> got =
          engine.ScoresWithOverrides(seed, answers, overrides).value();
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

  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 5; ++trial) {
    graph::EdgeId e = static_cast<graph::EdgeId>(
        rng.NextIndex(workload_.graph.NumEdges()));
    std::unordered_map<graph::EdgeId, double> overrides{
        {e, std::min(1.0, workload_.graph.Weight(e) * 1.5 + 0.01)}};
    std::vector<double> after =
        engine.ScoresWithOverrides(vote.query, vote.answer_list, overrides)
            .value();
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_GE(after[i], before[i] - 1e-15);
    }
  }
}

// Omega of the *unchanged* graph is identically zero: re-ranking the
// recorded lists under the graph that produced them changes nothing.
TEST_P(RandomWorkloadProperty, UnchangedGraphScoresZeroOmega) {
  core::OmegaResult omega = core::EvaluateOmega(
      workload_.graph, workload_.votes, options_.encoder.symbolic.eipd);
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
      expanded->optimized, workload_.votes, options.encoder.symbolic.eipd);
  core::OmegaResult omega_compact = core::EvaluateOmega(
      compact->optimized, workload_.votes, options.encoder.symbolic.eipd);
  EXPECT_NEAR(omega_expanded.average, omega_compact.average, 1e-9);
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
