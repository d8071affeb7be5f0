// Fault-tolerance building blocks for the optimization pipeline:
//
//  * ResilientSgpSolver - wraps SgpSolver with a retry/fallback policy:
//    failed solves (NotConverged / NumericalError / DeadlineExceeded /
//    Infeasible) are retried at once from jittered restart points, walking
//    the formulation fallback chain: the base formulation, then
//    ReducedSigmoid and HardConstraints (whichever is not the base). Every
//    attempt is recorded; the best finite point seen is returned even when
//    every attempt failed.
//
//  * ValidateGraphUpdate - invariant checks run on an optimized graph
//    before it replaces the serving graph: finite weights, weights in
//    bounds, out-weight sub-stochasticity, and no edge-set drift. A
//    violation means the update must be rolled back (see
//    OnlineKgOptimizer::Flush).
//
// Everything here is deterministic: the jitter stream has a fixed seed
// (salted per caller), so a fixed attempt order replays identical
// restarts.

#ifndef KGOV_CORE_RESILIENCE_H_
#define KGOV_CORE_RESILIENCE_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "math/sgp_solver.h"

namespace kgov::core {

/// Retry/fallback policy for one logical SGP solve.
struct RetryOptions {
  /// Total attempts, including the first one. 1 disables retries.
  /// Attempt k > 0 runs the k-th formulation of the fallback chain
  /// (skipping the base formulation; attempts beyond the chain reuse its
  /// last entry) from the initial point perturbed by 0.05 x U(-1, 1) x
  /// each variable's box width.
  int max_attempts = 3;

  /// Checks every field range; returns InvalidArgument naming the first
  /// offending field. ResilientSgpSolver::Solve fails fast with the result.
  Status Validate() const;
};

/// What happened on one attempt.
struct SolveAttempt {
  int attempt = 0;
  math::SgpFormulation formulation = math::SgpFormulation::kReducedSigmoid;
  Status status;
  double seconds = 0.0;
};

/// Result of a resilient solve. `solution.x` is always finite (the
/// underlying solver sanitizes its points); `exhausted` is true when no
/// attempt returned OK.
struct ResilientSolveOutcome {
  math::SgpSolution solution;
  std::vector<SolveAttempt> attempts;
  bool exhausted = false;
};

class ResilientSgpSolver {
 public:
  ResilientSgpSolver(math::SgpSolverOptions base, RetryOptions retry)
      : base_(std::move(base)), retry_(std::move(retry)) {}

  /// Solves with retries. `seed_salt` is mixed into the jitter seed so
  /// concurrent callers (e.g. per-cluster solves) draw independent but
  /// deterministic restart streams; pass the cluster index.
  ResilientSolveOutcome Solve(const math::SgpProblem& problem,
                              uint64_t seed_salt = 0) const;

 private:
  math::SgpSolverOptions base_;
  RetryOptions retry_;
};

/// Invariants an optimized graph must satisfy before it may replace the
/// serving graph.
struct GraphValidatorOptions {
  double weight_lower_bound = 0.0;
  double weight_upper_bound = 1.0;
  /// Slack on the weight bounds and on the sub-stochastic check.
  double tolerance = 1e-6;

  /// Checks every field range. ValidateGraphUpdate fails fast with the
  /// result.
  Status Validate() const;
};

/// Verifies that `after` is a legal weight-only update of `before`: the
/// same node and edge sets, finite weights within the bounds, and every
/// node's out-weights summing to <= 1 + tolerance (the convergence
/// condition of the random-walk similarity series). Returns OK or
/// FailedPrecondition naming the first violated invariant.
Status ValidateGraphUpdate(const graph::WeightedDigraph& before,
                           const graph::WeightedDigraph& after,
                           const GraphValidatorOptions& options = {});

}  // namespace kgov::core

#endif  // KGOV_CORE_RESILIENCE_H_
