// Figure 5: MRR and MAP of the test dataset before/after optimization.
//
// (a) over the whole test set; (b) restricted to the questions whose best
// answer does NOT rank first under the original graph (the subset the
// single-vote solution can actually help).
//
// Paper: (a) original ~0.63 MRR/MAP; single-vote degrades to ~0.61;
// multi-vote improves by ~8%. (b) both solutions improve on the non-top-1
// subset. Shape: multi > original everywhere; single helps on (b) but not
// necessarily on (a).

#include <cstdio>

#include "bench/bench_util.h"
#include "qa/metrics.h"

namespace kgov {
namespace {

using Rankings = std::vector<std::vector<qa::RankedDocument>>;

int Run() {
  bench::Banner("Figure 5: MRR and MAP of graph optimization",
                "Fig. 5(a)-(b) (SVII-B)");

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

  auto ask_all = [&](const graph::WeightedDigraph& g) {
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

  Rankings original = ask_all(t.env.deployed.graph);
  Rankings after_single = ask_all(single->optimized);
  Rankings after_multi = ask_all(multi->optimized);

  // Subset (b): questions whose best answer is not top-1 originally.
  std::vector<size_t> hard;
  for (size_t i = 0; i < questions.size(); ++i) {
    if (qa::DocumentRank(original[i], questions[i].best_document) != 1) {
      hard.push_back(i);
    }
  }
  auto subset = [&](const Rankings& rankings) {
    std::pair<std::vector<qa::Question>, Rankings> out;
    for (size_t i : hard) {
      out.first.push_back(questions[i]);
      out.second.push_back(rankings[i]);
    }
    return out;
  };

  auto print_panel = [&](const char* title,
                         const std::vector<qa::Question>& qs,
                         const Rankings& orig, const Rankings& sgl,
                         const Rankings& mlt) {
    std::printf("\n%s (%zu questions)\n", title, qs.size());
    bench::TablePrinter table({"Graph", "MRR", "MAP"}, {22, 8, 8});
    table.PrintHeader();
    qa::RankingMetrics mo = qa::EvaluateRankings(qs, orig);
    qa::RankingMetrics ms = qa::EvaluateRankings(qs, sgl);
    qa::RankingMetrics mm = qa::EvaluateRankings(qs, mlt);
    table.PrintRow({"Original", bench::Num(mo.mrr, 3), bench::Num(mo.map, 3)});
    table.PrintRow({"Single-V", bench::Num(ms.mrr, 3), bench::Num(ms.map, 3)});
    table.PrintRow({"Multi-V", bench::Num(mm.mrr, 3), bench::Num(mm.map, 3)});
  };

  print_panel("(a) whole test dataset", questions, original, after_single,
              after_multi);
  auto [hard_qs, hard_orig] = subset(original);
  auto [hq2, hard_single] = subset(after_single);
  auto [hq3, hard_multi] = subset(after_multi);
  print_panel("(b) questions whose best answer was not top-1", hard_qs,
              hard_orig, hard_single, hard_multi);

  std::printf(
      "\nPaper Fig. 5: (a) original 0.63 -> single 0.61 / multi ~0.68; (b) "
      "both\nsolutions improve MRR and MAP on the non-top-1 subset.\n");
  return 0;
}

}  // namespace
}  // namespace kgov

int main() { return kgov::Run(); }
