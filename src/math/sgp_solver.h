// Solver front-end for SgpProblem instances.
//
// Three formulations are supported, mirroring the paper:
//
//  * kHardConstraints    - single-vote form (SIV): minimize the proximal
//                          objective subject to every constraint, via the
//                          augmented Lagrangian. May report Infeasible.
//  * kDeviationVariables - multi-vote form exactly as written (SV, Eq. 15):
//                          each constraint g_i(x) <= 0 is relaxed to
//                          g_i(x) - d_i <= 0 with a fresh variable d_i and a
//                          sigmoid(w d_i) objective term (Eq. 18/19).
//  * kReducedSigmoid     - analytically equivalent multi-vote form: because
//                          the sigmoid is increasing, the optimum of the
//                          deviation form has d_i = g_i(x), so the deviation
//                          variables can be substituted out, leaving the
//                          smooth box-constrained problem
//                          min lambda1*prox + lambda2*sum sigmoid(w g_i(x)).
//                          This is the default (faster, same optima); the
//                          ablation bench compares all three.
//
// Every formulation runs the one inner solver, ProjectedBbSolver: directly
// (reduced form) or inside the augmented Lagrangian (the other two). Hard
// constraints are made strict with a fixed margin, g_i(x) <= -1e-6.

#ifndef KGOV_MATH_SGP_SOLVER_H_
#define KGOV_MATH_SGP_SOLVER_H_

#include <vector>

#include "math/sgp_problem.h"
#include "math/sigmoid.h"

namespace kgov::math {

enum class SgpFormulation {
  kHardConstraints,
  kDeviationVariables,
  kReducedSigmoid,
};

struct SgpSolverOptions {
  SgpFormulation formulation = SgpFormulation::kReducedSigmoid;
  /// Preference weight on edge-weight change (paper lambda1, Eq. 19).
  double lambda1 = 0.5;
  /// Preference weight on vote satisfaction (paper lambda2, Eq. 19).
  double lambda2 = 0.5;
  /// With the paper's steepness w = 300 (kPaperSigmoidSteepness) the
  /// sigmoid saturates (zero gradient) far from the boundary; continuation
  /// solves a sequence of problems with increasing steepness ending at
  /// w = 300, each warm-started from the previous solution. 1 disables
  /// continuation.
  int continuation_steps = 6;
  /// Wall-clock budget for one Solve call, spanning every continuation
  /// step and augmented-Lagrangian outer iteration; <= 0 disables it. On
  /// expiry Solve returns the best iterate reached so far with
  /// StatusCode::kDeadlineExceeded.
  double deadline_seconds = 0.0;
  /// Augmented-Lagrangian outer iterations per solve (hard form) or per
  /// continuation step (deviation form); the reduced form has none.
  int max_outer_iterations = 30;
  /// Budgets and tolerances of every projected-BB inner solve.
  SolveOptions inner;

  /// Checks every field range; returns InvalidArgument naming the first
  /// offending field. SgpSolver captures the result at construction and
  /// every Solve on an invalid configuration fails fast with it.
  Status Validate() const;
};

struct SgpSolution {
  /// Optimized values for the problem's original variables (deviation
  /// variables, when present, are stripped).
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
  /// Number of constraints with g_i(x) <= tolerance at the solution.
  int satisfied_constraints = 0;
  int total_constraints = 0;
  bool converged = false;
  /// OK, NotConverged, Infeasible, DeadlineExceeded, or NumericalError.
  /// Whatever the status, `x` is always finite and inside the problem's
  /// box: non-finite iterates are replaced by the initial point before the
  /// solution is returned (no garbage point ever escapes the solver).
  Status status;
};

class SgpSolver {
 public:
  explicit SgpSolver(SgpSolverOptions options = {})
      : options_(options), options_status_(options_.Validate()) {}

  const SgpSolverOptions& options() const { return options_; }

  /// Solves `problem` from its initial point.
  SgpSolution Solve(const SgpProblem& problem) const;

 private:
  /// Validation + fault-injection + formulation dispatch; Solve wraps it
  /// with the telemetry span and counters.
  SgpSolution SolveDispatch(const SgpProblem& problem) const;

  SgpSolution SolveHard(const SgpProblem& problem) const;
  SgpSolution SolveDeviation(const SgpProblem& problem) const;
  SgpSolution SolveReduced(const SgpProblem& problem) const;

  /// Counts satisfied constraints of `problem` at `x`.
  static int CountSatisfied(const SgpProblem& problem,
                            const std::vector<double>& x, double tolerance);

  /// Replaces a non-finite solution point with the (projected) initial
  /// point and downgrades the status to kNumericalError.
  static void Sanitize(const SgpProblem& problem, SgpSolution* solution);

  SgpSolverOptions options_;
  // Result of options_.Validate() captured at construction; Solve returns
  // it (in SgpSolution::status) without touching the problem when not OK.
  Status options_status_;
};

}  // namespace kgov::math

#endif  // KGOV_MATH_SGP_SOLVER_H_
