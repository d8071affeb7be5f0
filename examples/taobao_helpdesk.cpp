// Help-desk walkthrough: the paper's full Taobao-style pipeline at reduced
// scale, using the simulated user study.
//
//  1. Generate a help-desk corpus and build its co-occurrence KG (SIII-A).
//  2. Corrupt the deployed copy (source-data errors / staleness, SI).
//  3. Serve questions, collect user votes (positive + negative).
//  4. Optimize with the multi-vote solution and compare H@k / MRR / MAP on
//     an expert-labeled test set, before vs after.
//
// Run: ./build/examples/taobao_helpdesk

#include <cstdio>

#include "core/kg_optimizer.h"
#include "qa/metrics.h"
#include "qa/user_sim.h"

using namespace kgov;

namespace {

qa::RankingMetrics Evaluate(const graph::WeightedDigraph& graph,
                            const qa::SimulatedEnvironment& env,
                            const qa::QaOptions& qa_options) {
  qa::QaSystem system(&graph, &env.deployed.answer_nodes,
                      env.deployed.num_entities, qa_options);
  std::vector<std::vector<qa::RankedDocument>> rankings;
  for (const qa::Question& q : env.test_questions) {
    rankings.push_back(system.Answer(q).value_or({}));
  }
  return qa::EvaluateRankings(env.test_questions, rankings);
}

void PrintMetrics(const char* name, const qa::RankingMetrics& m) {
  std::printf("  %-10s H@1 %.2f  H@3 %.2f  H@5 %.2f  H@10 %.2f  MRR %.3f  "
              "MAP %.3f\n",
              name, m.hits_at[0], m.hits_at[1], m.hits_at[2], m.hits_at[3],
              m.mrr, m.map);
}

}  // namespace

int main() {
  // Reduced-scale corpus so the example runs in seconds.
  qa::CorpusParams corpus;
  corpus.num_entities = 400;
  corpus.num_topics = 40;
  corpus.num_documents = 500;
  corpus.mentions_per_document = 6;
  corpus.mentions_per_question = 3;

  qa::UserSimParams sim;
  sim.num_votes = 60;
  sim.num_test_questions = 80;
  sim.qa.top_k = 10;
  sim.qa.eipd.max_length = 5;
  sim.weight_noise = 1.2;
  sim.edge_dropout = 0.12;

  Rng rng(4242);
  Result<qa::SimulatedEnvironment> env = qa::BuildEnvironment(corpus, sim, rng);
  if (!env.ok()) {
    std::fprintf(stderr, "environment build failed: %s\n",
                 env.status().ToString().c_str());
    return 1;
  }

  votes::VoteSetSummary summary = votes::Summarize(env->votes);
  std::printf("Help-desk environment: %zu entities, %zu documents, "
              "%zu votes (%zu negative / %zu positive)\n",
              corpus.num_entities, corpus.num_documents, env->votes.size(),
              summary.negative, summary.positive);

  std::printf("\nAnswer quality on %zu expert-labeled test questions:\n",
              env->test_questions.size());
  qa::RankingMetrics truth = Evaluate(env->truth.graph, *env, sim.qa);
  qa::RankingMetrics deployed = Evaluate(env->deployed.graph, *env, sim.qa);
  PrintMetrics("truth", truth);
  PrintMetrics("deployed", deployed);

  core::OptimizerOptions options;
  options.encoder.symbolic.eipd = sim.qa.eipd;
  options.encoder.is_variable = env->deployed.EntityEdgePredicate();
  core::KgOptimizer optimizer(&env->deployed.graph, options);
  Result<core::OptimizeReport> report = optimizer.MultiVoteSolve(env->votes);
  if (!report.ok()) {
    std::fprintf(stderr, "optimization failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("\nMulti-vote optimization: %zu/%zu votes encoded, %d/%d "
              "constraints satisfied, %zu edges changed\n",
              report->votes_encoded, report->votes_in,
              report->constraints_satisfied, report->constraints_total,
              report->weight_changes.size());

  qa::RankingMetrics optimized = Evaluate(report->optimized, *env, sim.qa);
  PrintMetrics("optimized", optimized);

  double gain = optimized.mrr - deployed.mrr;
  std::printf("\nMRR %.3f -> %.3f (%+.3f); the votes moved the deployed "
              "graph toward the truth graph's quality (%.3f).\n",
              deployed.mrr, optimized.mrr, gain, truth.mrr);
  return 0;
}
