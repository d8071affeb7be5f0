// Figure 7: impact of the path-length pruning threshold L.
//
// (a) PD(Li, Li+1): percentage difference of the summed top-20 similarity
//     scores between consecutive settings (Eq. 22), for (L1,L2) in
//     {(2,3),(3,4),(4,5),(5,6)} on the three graph profiles. The paper
//     finds the difference becomes slim at L = 5, justifying L = 5.
// (b) elapsed time of graph optimization vs L in {2..6}: the cost grows
//     sharply with L (the paper could not efficiently solve past 5).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/kg_optimizer.h"
#include "graph/csr.h"
#include "graph/source.h"
#include "ppr/eipd_engine.h"
#include "votes/vote_generator.h"

namespace kgov {
namespace {

constexpr size_t kVotesForTiming = 20;

int Run() {
  bench::Banner("Figure 7: path-length threshold L",
                "Fig. 7(a)-(b) (SVII-E)");

  struct GraphCase {
    const char* profile;
    uint64_t seed;
  };
  std::vector<GraphCase> cases{
      {"twitter", 71}, {"digg", 72}, {"gnutella", 73}};

  // ---------- (a) percentage difference of similarity sums ----------
  std::printf("\n(a) PD(L_i, L_{i+1}) of summed top-20 scores (Eq. 22)\n");
  bench::TablePrinter pd_table(
      {"(L1,L2)", "twitter", "digg", "gnutella"}, {8, 10, 10, 10});
  pd_table.PrintHeader();

  // The paper uses NQ=1; a single query is noisy on synthetic graphs, so
  // we average PD over the workload's queries (each with its top-20 list).
  struct PerGraph {
    votes::SyntheticWorkload workload;
  };
  std::vector<PerGraph> prepared;
  for (const GraphCase& gc : cases) {
    Result<graph::WeightedDigraph> base =
        graph::LoadGraph(graph::GraphSource::Profile(gc.profile, gc.seed));
    if (!base.ok()) return 1;
    // The workload generator continues the profile seed's RNG stream.
    Rng rng(gc.seed + 1000);
    votes::SyntheticVoteParams params;
    params.num_queries = kVotesForTiming;
    params.num_answers = 2379;
    params.subgraph_nodes = 10000;
    params.top_k = 20;
    Result<votes::SyntheticWorkload> workload =
        votes::GenerateSyntheticWorkload(*base, params, rng);
    if (!workload.ok()) return 1;
    PerGraph pg;
    pg.workload = std::move(workload).value();
    prepared.push_back(std::move(pg));
  }

  auto mean_pd = [](const PerGraph& pg, int length) {
    ppr::EipdOptions lo_opt;
    lo_opt.max_length = length;
    ppr::EipdOptions hi_opt;
    hi_opt.max_length = length + 1;
    graph::CsrSnapshot snap(pg.workload.graph);
    ppr::EipdEngine lo_eval(snap.View(), lo_opt);
    ppr::EipdEngine hi_eval(snap.View(), hi_opt);
    double pd_sum = 0.0;
    size_t counted = 0;
    for (const votes::Vote& vote : pg.workload.votes) {
      std::vector<double> lo =
          lo_eval.Scores(vote.query, vote.answer_list).value();
      std::vector<double> hi =
          hi_eval.Scores(vote.query, vote.answer_list).value();
      double lo_sum = 0.0, hi_sum = 0.0;
      for (double s : lo) lo_sum += s;
      for (double s : hi) hi_sum += s;
      if (lo_sum > 0) {
        pd_sum += (hi_sum - lo_sum) / lo_sum;
        ++counted;
      }
    }
    return counted > 0 ? pd_sum / counted * 100.0 : 0.0;
  };

  for (int l = 2; l <= 5; ++l) {
    // Appended, not concatenated: GCC 12 warns -Wrestrict on an inlined
    // `const char* + std::string&&` in Release builds.
    std::string label = "(";
    label += std::to_string(l);
    label += ",";
    label += std::to_string(l + 1);
    label += ")";
    std::vector<std::string> row{std::move(label)};
    for (const PerGraph& pg : prepared) {
      row.push_back(bench::Num(mean_pd(pg, l), 3) + "%");
    }
    pd_table.PrintRow(row);
  }
  std::printf("Paper: PD becomes slim (<~0.1%%) once L_i reaches 5.\n");

  // ---------- (b) optimization time vs L ----------
  std::printf("\n(b) elapsed time of graph optimization (S-M, %zu votes)\n",
              kVotesForTiming);
  bench::TablePrinter time_table({"L", "twitter", "digg", "gnutella"},
                                 {4, 10, 10, 10});
  time_table.PrintHeader();
  for (int l = 2; l <= 6; ++l) {
    std::vector<std::string> row{std::to_string(l)};
    for (PerGraph& pg : prepared) {
      core::OptimizerOptions options;
      options.encoder.symbolic.eipd.max_length = l;
      options.encoder.is_variable = pg.workload.EntityEdgePredicate();
      core::KgOptimizer optimizer(&pg.workload.graph, options);
      Timer timer;
      Result<core::OptimizeReport> report =
          optimizer.SplitMergeSolve(pg.workload.votes);
      row.push_back(report.ok() ? FormatDuration(timer.ElapsedSeconds())
                                : std::string("fail"));
    }
    time_table.PrintRow(row);
  }
  std::printf(
      "Paper Fig. 7(b): accelerated growth of elapsed time with L; beyond "
      "L=5\nthe SGP problems become too expensive, hence the choice L=5.\n");
  return 0;
}

}  // namespace
}  // namespace kgov

int main() { return kgov::Run(); }
