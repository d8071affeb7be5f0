// Figure 6: scalability and effectiveness of the optimization strategies
// on the three large graphs (Twitter, Digg, Gnutella profiles).
//
// (a-c) elapsed time vs number of votes {10,30,50,100,150,200} for the
//       single-vote solution, the basic multi-vote solution, the
//       split-and-merge (S-M) strategy, and distributed S-M (thread pool
//       standing in for the paper's 4 machines).
// (d-f) Omega_avg for single-vote, multi-vote and S-M.
//
// Paper shape: multi-vote time explodes with votes (OOM past ~70 on
// Twitter); S-M is >= 6x faster at scale; distributed S-M is another
// order of magnitude faster; S-M's Omega_avg is close to (or better than)
// the basic multi-vote solution, and both beat single-vote.
//
// The basic multi-vote solve is capped at 100 votes here (mirroring the
// paper's memory cutoff) to keep the harness's runtime bounded.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/scoring.h"
#include "graph/csr.h"
#include "graph/source.h"
#include "votes/vote_generator.h"

namespace kgov {
namespace {

constexpr size_t kMaxVotes = 200;
constexpr size_t kMultiVoteCap = 150;
constexpr size_t kWorkers = 4;  // the paper used four machines

struct MethodResult {
  double seconds = -1.0;  // <0: not run
  double omega = 0.0;
};

int RunGraph(const graph::GraphProfile& profile, uint64_t seed) {
  std::printf("\n--- %s profile: %zu nodes, %zu edges ---\n",
              profile.name.c_str(), profile.num_nodes, profile.num_edges);

  Result<graph::WeightedDigraph> base =
      graph::LoadGraph(graph::GraphSource::Profile(profile.name, seed));
  if (!base.ok()) {
    std::fprintf(stderr, "graph generation failed\n");
    return 1;
  }
  Rng rng(seed + 1000);  // workload stream, separate from the generator's

  votes::SyntheticVoteParams params;  // paper defaults (SVII-A)
  params.num_queries = kMaxVotes;
  params.num_answers = 2379;
  params.subgraph_nodes = 10000;
  params.top_k = 20;
  params.avg_negative_rank = 10.0;
  // The paper picks the voted best answer uniformly from the top-k list,
  // which makes ~19/20 of the votes negative (and NaveN ~ 10).
  params.negative_fraction = 0.95;
  Result<votes::SyntheticWorkload> workload =
      votes::GenerateSyntheticWorkload(*base, params, rng);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  core::OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 5;
  options.encoder.is_variable = workload->EntityEdgePredicate();
  options.apply_judgment_filter = true;
  // Paper-faithful settings: Algorithm 1 verbatim for single-vote, and the
  // exact deviation-variable formulation of Eq. 15 for the multi-vote
  // machinery (kgov's faster reduced form is benched in bench_ablation_forms).
  options.single_vote_refine_rounds = 1;
  options.sgp.formulation = math::SgpFormulation::kDeviationVariables;
  // Bounded solver effort keeps the sweep's wall time manageable on one
  // core without changing the relative shapes.
  options.sgp.continuation_steps = 3;
  options.sgp.inner.max_iterations = 250;
  options.sgp.max_outer_iterations = 12;

  core::KgOptimizer optimizer(&workload->graph, options);

  bench::TablePrinter table(
      {"#votes", "single", "multi", "S-M", "dS-M(sim)", "| omega:", "single",
       "multi", "S-M"},
      {7, 9, 9, 9, 9, 8, 7, 7, 7});
  table.PrintHeader();

  for (size_t n : {10u, 30u, 50u, 100u, 150u, 200u}) {
    std::vector<votes::Vote> votes(workload->votes.begin(),
                                   workload->votes.begin() + n);
    MethodResult single, multi, sm, dsm;
    Timer timer;

    timer.Restart();
    Result<core::OptimizeReport> r_single = optimizer.SingleVoteSolve(votes);
    single.seconds = timer.ElapsedSeconds();
    if (r_single.ok()) {
      const graph::CsrSnapshot optimized(r_single->optimized);
      single.omega = core::EvaluateOmega(optimized.View(), votes,
                                         options.encoder.symbolic.eipd)
                         .average;
    }

    if (n <= kMultiVoteCap) {
      timer.Restart();
      Result<core::OptimizeReport> r_multi = optimizer.MultiVoteSolve(votes);
      multi.seconds = timer.ElapsedSeconds();
      if (r_multi.ok()) {
        const graph::CsrSnapshot optimized(r_multi->optimized);
        multi.omega = core::EvaluateOmega(optimized.View(), votes,
                                          options.encoder.symbolic.eipd)
                          .average;
      }
    }

    timer.Restart();
    Result<core::OptimizeReport> r_sm = optimizer.SplitMergeSolve(votes);
    sm.seconds = timer.ElapsedSeconds();
    if (r_sm.ok()) {
      const graph::CsrSnapshot optimized(r_sm->optimized);
      sm.omega = core::EvaluateOmega(optimized.View(), votes,
                                     options.encoder.symbolic.eipd)
                     .average;

      // Distributed S-M: this host has a single core, so a thread pool
      // cannot show real parallel gains (DistributedSplitMergeSolve is
      // exercised by the test suite and usable on multicore hosts).
      // Instead report the simulated 4-machine makespan from the same
      // run's measured per-cluster solve times (LPT assignment), matching
      // the paper's 4-computer setup.
      std::vector<double> times = r_sm->cluster_seconds;
      std::sort(times.begin(), times.end(), std::greater<double>());
      std::vector<double> machines(kWorkers, 0.0);
      for (double t : times) {
        *std::min_element(machines.begin(), machines.end()) += t;
      }
      dsm.seconds = r_sm->encode_seconds +
                    *std::max_element(machines.begin(), machines.end());
    }

    auto cell = [](const MethodResult& m) {
      return m.seconds < 0 ? std::string("-") : FormatDuration(m.seconds);
    };
    table.PrintRow({std::to_string(n), cell(single), cell(multi), cell(sm),
                    cell(dsm), "|", bench::Num(single.omega),
                    multi.seconds < 0 ? std::string("-")
                                      : bench::Num(multi.omega),
                    bench::Num(sm.omega)});
  }
  std::printf(
      "('multi' capped at %zu votes, mirroring the paper's memory cutoff; "
      "dist S-M uses %zu workers)\n",
      kMultiVoteCap, kWorkers);
  return 0;
}

int Run() {
  bench::Banner("Figure 6: #votes vs elapsed time and Omega_avg",
                "Fig. 6(a)-(f) (SVII-D)");
  if (RunGraph(graph::TwitterProfile(), 61) != 0) return 1;
  if (RunGraph(graph::DiggProfile(), 62) != 0) return 1;
  if (RunGraph(graph::GnutellaProfile(), 63) != 0) return 1;
  std::printf(
      "\nPaper shape: multi-vote time grows super-linearly with votes; S-M "
      "is\n>=6x faster past ~70 votes; distributed S-M roughly another "
      "order of\nmagnitude; Omega_avg of S-M is close to or above "
      "multi-vote, both above\nsingle-vote.\n");
  return 0;
}

}  // namespace
}  // namespace kgov

int main() { return kgov::Run(); }
