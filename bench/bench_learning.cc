// Learning-path solve time: one paper-scale multi-vote solve on the
// help-desk KG (bench::MakeTaobaoEnvironment(1.0, 7101): 4,042 nodes, 100
// votes) at walk lengths L = 3, 4, 5, through two constraint programs
// that encode the same votes:
//
//   adjoint    core::KgOptimizer::MultiVoteSolve: votes::VoteProgram, one
//              forward and one backward propagation per vote per
//              evaluation (ppr/eipd_adjoint.h);
//   signomial  the walk expansion the optimizer used before
//              (votes::VoteEncoder, one monomial per walk, pruned at
//              min_path_mass = 1e-8 as the benches ran it), solved by the
//              same solver call after the same judgment filter.
//
// Each path's time splits into encode (filter + program build) and solve;
// iterations are the solver's inner iterations (sgp.solver.iterations),
// and ms/iteration is solve time over iterations. Every metric is the
// median over the repetitions, with its interquartile range.
//
// Usage:
//   bench_learning [--reps N] [--signomial-reps N] [--lengths 3,4,5]
//                  [--git-sha SHA] [--json PATH] [--smoke]
// --smoke runs L = 3 once per path at a fifth of the corpus scale.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "math/sgp_solver.h"
#include "math/stats.h"
#include "votes/judgment.h"
#include "votes/vote_encoder.h"

namespace kgov::bench {
namespace {

constexpr double kSignomialMinPathMass = 1e-8;

struct Run {
  double encode_s = 0.0;
  double solve_s = 0.0;
  double iterations = 0.0;
  double ms_per_iteration = 0.0;
  double satisfied = 0.0;
  double constraints = 0.0;
  double variables = 0.0;
  double terms = 0.0;  // signomial terms; 0 for the adjoint program
};

uint64_t SolverIterations() {
  return telemetry::MetricRegistry::Global()
      .GetCounter("sgp.solver.iterations")
      ->Value();
}

void Finish(uint64_t iterations_before, Run* run) {
  run->iterations =
      static_cast<double>(SolverIterations() - iterations_before);
  run->ms_per_iteration =
      run->iterations > 0.0 ? run->solve_s * 1e3 / run->iterations : 0.0;
}

Run RunAdjoint(const TaobaoEnvironment& env,
               const core::OptimizerOptions& options) {
  core::KgOptimizer optimizer(&env.env.deployed.graph, options);
  const uint64_t before = SolverIterations();
  Result<core::OptimizeReport> report =
      optimizer.MultiVoteSolve(env.env.votes);
  KGOV_CHECK(report.ok()) << report.status().ToString();
  Run run;
  run.encode_s = report->encode_seconds;
  run.solve_s = report->solve_seconds;
  run.satisfied = report->constraints_satisfied;
  run.constraints = report->constraints_total;
  Finish(before, &run);
  return run;
}

Run RunSignomial(const TaobaoEnvironment& env,
                 const core::OptimizerOptions& options) {
  const graph::WeightedDigraph& g = env.env.deployed.graph;
  Run run;
  Timer timer;
  const graph::CsrSnapshot snapshot(g);
  votes::JudgmentOptions judgment;
  judgment.eipd = options.encoder.symbolic.eipd;
  judgment.is_variable = options.encoder.is_variable;
  const std::vector<votes::Vote> filtered =
      votes::JudgmentFilter(&g, snapshot.View(), judgment)
          .FilterVotes(env.env.votes);
  votes::EncoderOptions encoder = options.encoder;
  encoder.symbolic.min_path_mass = kSignomialMinPathMass;
  Result<votes::EncodedProgram> program =
      votes::VoteEncoder(&g, encoder).EncodeBatch(filtered);
  KGOV_CHECK(program.ok()) << program.status().ToString();
  run.encode_s = timer.ElapsedSeconds();
  for (const math::SgpConstraint& c : program->problem.constraints()) {
    run.terms += static_cast<double>(c.g.NumTerms());
  }
  run.variables = static_cast<double>(program->problem.num_variables());

  const uint64_t before = SolverIterations();
  timer.Restart();
  const math::SgpSolution solution =
      math::SgpSolver(options.sgp).Solve(program->problem);
  run.solve_s = timer.ElapsedSeconds();
  run.satisfied = solution.satisfied_constraints;
  run.constraints = solution.total_constraints;
  Finish(before, &run);
  return run;
}

// The adjoint program's variable count (the optimizer does not report it).
double AdjointVariables(const TaobaoEnvironment& env,
                        const core::OptimizerOptions& options) {
  const graph::WeightedDigraph& g = env.env.deployed.graph;
  const graph::CsrSnapshot snapshot(g);
  Result<votes::EncodedProgram> program = votes::EncodeVoteProgram(
      g, snapshot.View(), options.encoder, env.env.votes);
  KGOV_CHECK(program.ok()) << program.status().ToString();
  return static_cast<double>(program->problem.num_variables());
}

std::string Stat(const std::vector<Run>& runs, double Run::*field,
                 int precision) {
  std::vector<double> values;
  for (const Run& r : runs) values.push_back(r.*field);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"median\": %.*f, \"q25\": %.*f, \"q75\": %.*f}",
                precision, math::Percentile(values, 50), precision,
                math::Percentile(values, 25), precision,
                math::Percentile(values, 75));
  return buf;
}

std::string PathJson(const std::vector<Run>& runs) {
  std::string out = "{\"repetitions\": " + std::to_string(runs.size());
  out += ", \"encode_s\": " + Stat(runs, &Run::encode_s, 4);
  out += ", \"solve_s\": " + Stat(runs, &Run::solve_s, 4);
  out += ", \"iterations\": " + Stat(runs, &Run::iterations, 1);
  out += ", \"ms_per_iteration\": " + Stat(runs, &Run::ms_per_iteration, 3);
  out += ", \"satisfied\": " + Stat(runs, &Run::satisfied, 0);
  out += ", \"constraints\": " + Stat(runs, &Run::constraints, 0);
  out += ", \"variables\": " + Stat(runs, &Run::variables, 0);
  out += ", \"terms\": " + Stat(runs, &Run::terms, 0);
  return out + "}";
}

double MedianOf(const std::vector<Run>& runs, double Run::*field) {
  std::vector<double> values;
  for (const Run& r : runs) values.push_back(r.*field);
  return math::Percentile(values, 50);
}

}  // namespace
}  // namespace kgov::bench

int main(int argc, char** argv) {
  using namespace kgov;
  using namespace kgov::bench;
  int reps = 5;
  int signomial_reps = 3;
  std::vector<int> lengths = {3, 4, 5};
  std::string git_sha = "unknown";
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--signomial-reps") == 0 && i + 1 < argc) {
      signomial_reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--lengths") == 0 && i + 1 < argc) {
      lengths.clear();
      for (const std::string& part : SplitString(argv[++i], ",")) {
        lengths.push_back(std::atoi(part.c_str()));
      }
    } else if (std::strcmp(argv[i], "--git-sha") == 0 && i + 1 < argc) {
      git_sha = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) {
    reps = 1;
    signomial_reps = 1;
    lengths = {3};
  }

  Banner("Learning-path solve time: adjoint vs signomial program",
         "paper SV (Eq. 19) multi-vote solve, ROADMAP item 1");
  Result<TaobaoEnvironment> env =
      MakeTaobaoEnvironment(smoke ? 0.2 : 1.0, 7101);
  KGOV_CHECK(env.ok()) << env.status().ToString();
  std::printf("graph: %zu nodes, %zu edges, %zu votes\n",
              env->env.deployed.graph.NumNodes(),
              env->env.deployed.graph.NumEdges(), env->env.votes.size());

  TablePrinter table({"L", "path", "encode s", "solve s", "iters", "ms/iter",
                      "satisfied", "vars", "terms"},
                     {2, 9, 9, 9, 7, 9, 10, 7, 9});
  table.PrintHeader();
  std::string rows;
  for (int length : lengths) {
    core::OptimizerOptions options = env->optimizer_options;
    options.encoder.symbolic.eipd.max_length = length;
    std::vector<Run> adjoint, signomial;
    for (int r = 0; r < reps; ++r) adjoint.push_back(RunAdjoint(*env, options));
    const double variables = AdjointVariables(*env, options);
    for (Run& run : adjoint) run.variables = variables;
    for (int r = 0; r < signomial_reps; ++r) {
      signomial.push_back(RunSignomial(*env, options));
    }
    for (const auto& [name, runs] :
         {std::pair<const char*, const std::vector<Run>*>{"adjoint", &adjoint},
          {"signomial", &signomial}}) {
      table.PrintRow({std::to_string(length), name,
                      Num(MedianOf(*runs, &Run::encode_s), 3),
                      Num(MedianOf(*runs, &Run::solve_s), 3),
                      Num(MedianOf(*runs, &Run::iterations), 0),
                      Num(MedianOf(*runs, &Run::ms_per_iteration), 3),
                      Num(MedianOf(*runs, &Run::satisfied), 0) + "/" +
                          Num(MedianOf(*runs, &Run::constraints), 0),
                      Num(MedianOf(*runs, &Run::variables), 0),
                      Num(MedianOf(*runs, &Run::terms), 0)});
    }
    const double speedup = MedianOf(signomial, &Run::ms_per_iteration) /
                           MedianOf(adjoint, &Run::ms_per_iteration);
    std::printf("L=%d: signomial / adjoint ms per iteration = %.1fx\n",
                length, speedup);
    char head[96];
    std::snprintf(head, sizeof(head),
                  "    {\"max_length\": %d, \"ms_per_iteration_ratio\": %.2f",
                  length, speedup);
    if (!rows.empty()) rows += ",\n";
    rows += std::string(head) + ",\n     \"adjoint\": " + PathJson(adjoint) +
            ",\n     \"signomial\": " + PathJson(signomial) + "}";
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    KGOV_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f,
                 "{\n  \"benchmark\": \"bench_learning\",\n"
                 "  \"smoke\": %s,\n  \"host_cores\": %u,\n"
                 "  \"build_type\": \"%s\",\n  \"git_sha\": \"%s\",\n"
                 "  \"environment\": \"MakeTaobaoEnvironment(%.1f, 7101)\",\n"
                 "  \"nodes\": %zu,\n  \"edges\": %zu,\n  \"votes\": %zu,\n"
                 "  \"signomial_min_path_mass\": %g,\n"
                 "  \"statistic\": \"median and interquartile range "
                 "(q25, q75) over repetitions\",\n"
                 "  \"lengths\": [\n%s\n  ]\n}\n",
                 smoke ? "true" : "false",
                 std::thread::hardware_concurrency(), KGOV_BUILD_TYPE,
                 git_sha.c_str(), smoke ? 0.2 : 1.0,
                 env->env.deployed.graph.NumNodes(),
                 env->env.deployed.graph.NumEdges(), env->env.votes.size(),
                 kSignomialMinPathMass, rows.c_str());
    std::fclose(f);
    std::printf("results -> %s\n", json_path.c_str());
  }
  return 0;
}
