// Smooth box-constrained optimization used to solve the signomial geometric
// programs built from user votes.
//
// The paper solved its SGP instances with MATLAB's fmincon, a generic local
// NLP solver; SGP is NP-hard (paper SVI-A cites [35]), so any practical
// solver is a local heuristic. This module provides the equivalent
// from-scratch machinery:
//
//  * ProjectedBbSolver  - projected gradient descent with Barzilai-Borwein
//                         steps and a nonmonotone Armijo line search; the
//                         one inner solver.
//  * AugmentedLagrangianSolver - handles hard inequality constraints
//                         g_i(x) <= 0 (single-vote formulation, Eq. 11)
//                         around ProjectedBbSolver.
//
// The line-search and penalty-schedule constants are fixed in optimizer.cc;
// callers set only budgets and tolerances.

#ifndef KGOV_MATH_OPTIMIZER_H_
#define KGOV_MATH_OPTIMIZER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"

namespace kgov::math {

/// A smooth scalar function with analytic gradient.
class DifferentiableFunction {
 public:
  virtual ~DifferentiableFunction() = default;

  /// Returns f(x); when `grad` is non-null, fills it with grad f(x)
  /// (resizing to x.size()).
  virtual double Evaluate(const std::vector<double>& x,
                          std::vector<double>* grad) const = 0;
};

/// Wraps a lambda as a DifferentiableFunction.
class CallbackFunction : public DifferentiableFunction {
 public:
  using Fn = std::function<double(const std::vector<double>&,
                                  std::vector<double>*)>;
  explicit CallbackFunction(Fn fn) : fn_(std::move(fn)) {}

  double Evaluate(const std::vector<double>& x,
                  std::vector<double>* grad) const override {
    return fn_(x, grad);
  }

 private:
  Fn fn_;
};

/// A vector of constraint functions g(x) = (g_0(x), ..., g_{m-1}(x)),
/// evaluated together: one call returns every value and, on request, one
/// vector-Jacobian product (VJP). Implementations whose constraints share
/// work (the vote program's per-vote propagations) do it once per call.
class ConstraintSet {
 public:
  /// The VJP weight of constraint i given its value g_i(x). Callers'
  /// outer functions (sigmoid penalties, augmented-Lagrangian terms) act
  /// on each constraint separately, so the weight needs only g_i.
  using Cotangent = std::function<double(size_t i, double value)>;

  virtual ~ConstraintSet() = default;

  /// Number of constraints m.
  virtual size_t size() const = 0;

  /// Writes g_i(x) into (*values)[i] (resized to size()). When `grad` is
  /// non-null, also adds sum_i cotangent(i, g_i(x)) * grad g_i(x) to
  /// *grad, which has x.size() entries; `cotangent` must then be non-null.
  virtual void Evaluate(const std::vector<double>& x,
                        std::vector<double>* values,
                        const Cotangent* cotangent,
                        std::vector<double>* grad) const = 0;
};

/// Elementwise box x_l <= x <= x_u. Empty vectors mean unbounded.
struct BoxBounds {
  std::vector<double> lower;
  std::vector<double> upper;

  /// Box [lo, hi]^n.
  static BoxBounds Uniform(size_t n, double lo, double hi);

  /// Unbounded problem.
  static BoxBounds Unbounded() { return BoxBounds{}; }

  bool IsUnbounded() const { return lower.empty() && upper.empty(); }

  /// Clamps `x` into the box in place.
  void Project(std::vector<double>* x) const;

  /// True when `x` lies inside the box (within `tol`).
  bool Contains(const std::vector<double>& x, double tol = 1e-12) const;
};

/// Budgets and tolerances of one projected-BB solve.
struct SolveOptions {
  int max_iterations = 500;
  /// Wall-clock budget for one Minimize call, in seconds; <= 0 disables the
  /// deadline. When it expires the solver returns its current (best-so-far)
  /// iterate with StatusCode::kDeadlineExceeded.
  double deadline_seconds = 0.0;
  /// Converged when the projected-gradient infinity norm drops below this.
  double gradient_tolerance = 1e-7;
  /// Also converged when |f_k - f_{k-1}| <= value_tolerance*(1+|f_k|).
  double value_tolerance = 1e-12;

  /// Checks every field range; returns InvalidArgument naming the first
  /// offending field. Solvers validate at construction and fail fast with
  /// the result: Minimize returns it with the projected start point.
  Status Validate() const;
};

/// Outcome of a minimization.
struct SolveResult {
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;
  bool converged = false;
  /// OK, NotConverged, DeadlineExceeded (wall budget expired), or
  /// NumericalError (NaN/Inf detected in an iterate or gradient; x holds
  /// the last finite iterate).
  Status status;
};

/// Projected Barzilai-Borwein gradient descent.
class ProjectedBbSolver {
 public:
  explicit ProjectedBbSolver(SolveOptions options = {})
      : options_(options), options_status_(options_.Validate()) {}

  /// Minimizes `f` over the box starting from `x0` (projected first).
  /// Invalid options return InvalidArgument without evaluating `f`.
  SolveResult Minimize(const DifferentiableFunction& f,
                       const std::vector<double>& x0,
                       const BoxBounds& bounds) const;

 private:
  SolveOptions options_;
  Status options_status_;
};

/// Options specific to the augmented-Lagrangian outer loop.
struct AugLagOptions {
  SolveOptions inner;
  int max_outer_iterations = 30;
  /// Wall-clock budget across all outer iterations; <= 0 disables. The
  /// remaining budget is threaded into each inner solve.
  double deadline_seconds = 0.0;

  /// Checks this struct and the nested SolveOptions. The solver fails
  /// fast with the result, like ProjectedBbSolver.
  Status Validate() const;
};

/// Minimizes f(x) subject to g_i(x) <= 0 and box bounds via the standard
/// PHR augmented Lagrangian:
///   L(x; lambda, mu) = f + (1/2mu) sum_i [ max(0, lambda_i + mu g_i)^2
///                                          - lambda_i^2 ].
class AugmentedLagrangianSolver {
 public:
  explicit AugmentedLagrangianSolver(AugLagOptions options = {})
      : options_(options), options_status_(options_.Validate()) {}

  /// Minimizes subject to every g_i(x) <= 0 of `constraints`. Invalid
  /// options return InvalidArgument without evaluating anything.
  SolveResult Minimize(const DifferentiableFunction& objective,
                       const ConstraintSet& constraints,
                       const std::vector<double>& x0,
                       const BoxBounds& bounds) const;

  /// The same, one scalar function per constraint. `constraints` are
  /// viewed, not owned; they must outlive the call.
  SolveResult Minimize(
      const DifferentiableFunction& objective,
      const std::vector<const DifferentiableFunction*>& constraints,
      const std::vector<double>& x0, const BoxBounds& bounds) const;

  /// Max_i max(0, g_i(x)): the constraint violation at x.
  static double MaxViolation(
      const std::vector<const DifferentiableFunction*>& constraints,
      const std::vector<double>& x);

 private:
  AugLagOptions options_;
  Status options_status_;
};

/// Finite-difference gradient check helper (central differences); returns
/// the max absolute component error against the analytic gradient. Used by
/// tests and by debug assertions.
double MaxGradientError(const DifferentiableFunction& f,
                        const std::vector<double>& x, double step = 1e-6);

}  // namespace kgov::math

#endif  // KGOV_MATH_OPTIMIZER_H_
