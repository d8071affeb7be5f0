// Table V: promotion of best answers in the top-k list (H@k).
//
// H@k = fraction of test questions whose best answer ranks <= k, for:
//   IR                      - entity-coincidence retrieval baseline,
//   Q&A proposed in [5]     - random-walk (PPR) knowledge-graph Q&A,
//   KG without optimization - extended inverse P-distance Q&A,
//   KG + single-vote        - after Algorithm 1,
//   KG + multi-vote         - after the multi-vote solution.
//
// Paper Table V (H@1/H@3/H@5/H@10):
//   IR 0.15/0.29/0.34/0.47; [5] 0.47/0.68/0.77/0.89; KG 0.49/0.69/0.79/0.90;
//   single 0.45/0.68/0.81/0.92; multi 0.53/0.77/0.87/0.94.
// Expected shape: KG methods >> IR; [5] ~ KG (PPR and EIPD are
// equivalent); multi-vote best across all k.

#include <cstdio>

#include "bench/bench_util.h"
#include "qa/baselines.h"
#include "qa/metrics.h"

namespace kgov {
namespace {

using Rankings = std::vector<std::vector<qa::RankedDocument>>;

qa::RankingMetrics HitsOf(const std::vector<qa::Question>& questions,
                          const Rankings& rankings) {
  return qa::EvaluateRankings(questions, rankings, {1, 3, 5, 10});
}

int Run() {
  bench::Banner("Table V: promotion of best answers in top-k list",
                "Table V (SVII-B)");

  Result<bench::TaobaoEnvironment> setup =
      bench::MakeTaobaoEnvironment(1.0, /*seed=*/7101);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  bench::TaobaoEnvironment& t = *setup;
  const std::vector<qa::Question>& questions = t.env.test_questions;

  core::KgOptimizer optimizer(&t.env.deployed.graph, t.optimizer_options);
  Result<core::OptimizeReport> single =
      optimizer.SingleVoteSolve(t.env.votes);
  Result<core::OptimizeReport> multi = optimizer.MultiVoteSolve(t.env.votes);
  if (!single.ok() || !multi.ok()) {
    std::fprintf(stderr, "optimization failed\n");
    return 1;
  }

  // IR baseline.
  qa::IrBaseline ir(&t.env.corpus);
  Rankings ir_rankings;
  for (const qa::Question& q : questions) {
    ir_rankings.push_back(ir.Ask(q, t.sim_params.qa.top_k));
  }

  // Random-walk Q&A of [5] (fast path: identical scores to per-answer
  // solving; Table VI measures the cost difference).
  qa::RandomWalkQa rw(&t.env.deployed.graph, &t.env.deployed.answer_nodes,
                      t.env.deployed.num_entities, {},
                      t.sim_params.qa.top_k);
  Rankings rw_rankings;
  for (const qa::Question& q : questions) {
    rw_rankings.push_back(rw.AskFast(q));
  }

  auto kg_rankings = [&](const graph::WeightedDigraph& g) {
    qa::QaSystem system(&g, &t.env.deployed.answer_nodes,
                        t.env.deployed.num_entities, t.sim_params.qa);
    Rankings rankings;
    for (const qa::Question& q : questions) {
      StatusOr<std::vector<qa::RankedDocument>> docs = system.Answer(q);
      KGOV_CHECK(docs.ok()) << docs.status().ToString();
      rankings.push_back(std::move(docs).value());
    }
    return rankings;
  };

  qa::RankingMetrics m_ir = HitsOf(questions, ir_rankings);
  qa::RankingMetrics m_rw = HitsOf(questions, rw_rankings);
  qa::RankingMetrics m_kg =
      HitsOf(questions, kg_rankings(t.env.deployed.graph));
  qa::RankingMetrics m_single =
      HitsOf(questions, kg_rankings(single->optimized));
  qa::RankingMetrics m_multi =
      HitsOf(questions, kg_rankings(multi->optimized));

  bench::TablePrinter table({"Method", "H@1", "H@3", "H@5", "H@10"},
                            {34, 6, 6, 6, 6});
  table.PrintHeader();
  auto row = [&](const std::string& name, const qa::RankingMetrics& m) {
    table.PrintRow({name, bench::Num(m.hits_at[0]), bench::Num(m.hits_at[1]),
                    bench::Num(m.hits_at[2]), bench::Num(m.hits_at[3])});
  };
  row("IR", m_ir);
  row("Q&A proposed in [5]", m_rw);
  row("KG without optimization", m_kg);
  row("KG optimized by single-vote", m_single);
  row("KG optimized by multi-vote", m_multi);

  std::printf(
      "\nPaper Table V: IR 0.15/0.29/0.34/0.47; [5] 0.47/0.68/0.77/0.89;\n"
      "KG 0.49/0.69/0.79/0.90; single 0.45/0.68/0.81/0.92; multi "
      "0.53/0.77/0.87/0.94\n");
  return 0;
}

}  // namespace
}  // namespace kgov

int main() { return kgov::Run(); }
