#include "math/sgp_solver.h"

#include <algorithm>
#include <cmath>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "math/vector_ops.h"
#include "telemetry/metrics.h"

namespace kgov::math {

namespace {

// Margin that makes the hard form's inequalities strict: g_i(x) <= -margin.
constexpr double kStrictMargin = 1e-6;

// Objective shared by every formulation:
//   lambda1 * sum_{i < num_proximal} (x_i - anchor_i)^2
//   + lambda2 * sum_i weight_i * sigmoid(w * s_i(x))
// where the s_i differ per formulation (the problem's constraints, or the
// deviation variables) and are evaluated as one ConstraintSet: one value
// vector and one VJP per call.
class CompositeObjective : public DifferentiableFunction {
 public:
  /// The proximal term covers the first `num_proximal` variables (the
  /// edge weights; deviation variables follow them and have no original
  /// value to stay close to). `sigmoid_terms` may be null when lambda2 is
  /// 0; `weights` scales each sigmoid term.
  CompositeObjective(double lambda1, const std::vector<double>& anchor,
                     size_t num_proximal, double lambda2, double steepness,
                     const ConstraintSet* sigmoid_terms,
                     const SgpConstraints* weights)
      : lambda1_(lambda1),
        anchor_(anchor),
        num_proximal_(num_proximal),
        lambda2_(lambda2),
        steepness_(steepness),
        sigmoid_terms_(sigmoid_terms),
        weights_(weights) {}

  double Evaluate(const std::vector<double>& x,
                  std::vector<double>* grad) const override {
    if (grad) grad->assign(x.size(), 0.0);
    double value = 0.0;
    if (lambda1_ != 0.0) {
      for (size_t i = 0; i < num_proximal_; ++i) {
        double d = x[i] - anchor_[i];
        value += lambda1_ * d * d;
        if (grad) (*grad)[i] += 2.0 * lambda1_ * d;
      }
    }
    if (lambda2_ != 0.0 && sigmoid_terms_ != nullptr) {
      const ConstraintSet::Cotangent outer = [this](size_t i, double sv) {
        return lambda2_ * weights_->weight(i) *
               SigmoidDerivative(sv, steepness_);
      };
      sigmoid_terms_->Evaluate(x, &values_, grad ? &outer : nullptr, grad);
      for (size_t i = 0; i < values_.size(); ++i) {
        value += lambda2_ * weights_->weight(i) *
                 Sigmoid(values_[i], steepness_);
      }
    }
    return value;
  }

 private:
  double lambda1_;
  const std::vector<double>& anchor_;
  size_t num_proximal_;
  double lambda2_;
  double steepness_;
  const ConstraintSet* sigmoid_terms_;
  const SgpConstraints* weights_;
  // Scratch for the sigmoid terms' values; solvers evaluate from one
  // thread.
  mutable std::vector<double> values_;
};

// g_i(x) + margin - d_i <= 0 for the augmented Lagrangian: the problem's
// constraints with the strict margin (hard form) or minus the deviation
// variable d_i = x[deviation_offset + i] (deviation form, Eq. 15).
class ShiftedConstraints final : public ConstraintSet {
 public:
  static constexpr size_t kNoDeviations = static_cast<size_t>(-1);

  ShiftedConstraints(const ConstraintSet& base, double margin,
                     size_t deviation_offset)
      : base_(base), margin_(margin), deviation_offset_(deviation_offset) {}

  size_t size() const override { return base_.size(); }

  void Evaluate(const std::vector<double>& x, std::vector<double>* values,
                const Cotangent* cotangent,
                std::vector<double>* grad) const override {
    const Cotangent shifted = [&](size_t i, double value) {
      const double weight = (*cotangent)(i, Shift(x, i, value));
      if (deviation_offset_ != kNoDeviations) {
        (*grad)[deviation_offset_ + i] -= weight;
      }
      return weight;
    };
    base_.Evaluate(x, values, grad ? &shifted : nullptr, grad);
    for (size_t i = 0; i < values->size(); ++i) {
      (*values)[i] = Shift(x, i, (*values)[i]);
    }
  }

 private:
  double Shift(const std::vector<double>& x, size_t i, double value) const {
    return value + margin_ -
           (deviation_offset_ != kNoDeviations ? x[deviation_offset_ + i]
                                               : 0.0);
  }

  const ConstraintSet& base_;
  double margin_;
  size_t deviation_offset_;
};

// The deviation variables themselves, s_i(x) = x[offset + i]: the terms
// the deviation form's sigmoid penalties act on.
class DeviationTerms final : public ConstraintSet {
 public:
  DeviationTerms(size_t offset, size_t count)
      : offset_(offset), count_(count) {}

  size_t size() const override { return count_; }

  void Evaluate(const std::vector<double>& x, std::vector<double>* values,
                const Cotangent* cotangent,
                std::vector<double>* grad) const override {
    values->assign(x.begin() + static_cast<std::ptrdiff_t>(offset_),
                   x.begin() + static_cast<std::ptrdiff_t>(offset_ + count_));
    if (grad == nullptr) return;
    for (size_t i = 0; i < count_; ++i) {
      (*grad)[offset_ + i] += (*cotangent)(i, (*values)[i]);
    }
  }

 private:
  size_t offset_;
  size_t count_;
};

// Remaining wall budget for a solve that started `timer` ago; 0 disables,
// and an expired budget returns a tiny positive value so downstream
// deadline checks still trigger (rather than being interpreted as "off").
double RemainingBudget(const Timer& timer, double deadline_seconds) {
  if (deadline_seconds <= 0.0) return 0.0;
  return std::max(deadline_seconds - timer.ElapsedSeconds(), 1e-9);
}

// Geometric steepness schedule from a shallow start (w ~ 4, where the
// sigmoid has useful gradients everywhere) up to `target`. With the paper's
// w = 300 the sigmoid is numerically flat away from the boundary, so a
// direct solve stalls at the start point; the homotopy fixes that, exactly
// as interior-point solvers do with their barrier parameter.
std::vector<double> SteepnessSchedule(double target, int steps) {
  steps = std::max(steps, 1);
  const double start = std::min(4.0, target);
  if (steps == 1 || target <= start) return {target};
  std::vector<double> schedule(steps);
  double ratio = std::pow(target / start, 1.0 / (steps - 1));
  double w = start;
  for (int i = 0; i < steps; ++i) {
    schedule[i] = w;
    w *= ratio;
  }
  schedule.back() = target;
  return schedule;
}

}  // namespace

int SgpSolver::CountSatisfied(const SgpProblem& problem,
                              const std::vector<double>& x,
                              double tolerance) {
  std::vector<double> values;
  problem.constraint_set().Evaluate(x, &values, nullptr, nullptr);
  return static_cast<int>(
      std::count_if(values.begin(), values.end(),
                    [tolerance](double g) { return g <= tolerance; }));
}

void SgpSolver::Sanitize(const SgpProblem& problem, SgpSolution* solution) {
  bool finite = true;
  for (double v : solution->x) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  }
  if (finite && solution->x.size() == problem.num_variables()) return;
  // Garbage point: never let it escape. The initial point is the safest
  // finite fallback (it is the current graph's weights).
  solution->x = problem.initial();
  problem.bounds().Project(&solution->x);
  solution->objective = 0.0;
  solution->converged = false;
  solution->satisfied_constraints =
      CountSatisfied(problem, solution->x, 1e-9);
  if (solution->status.ok() || solution->status.IsNotConverged()) {
    solution->status = Status::NumericalError(
        "solver produced a non-finite point; reverted to the initial point");
  }
}

namespace {

// Registry pointers resolved once; values survive MetricRegistry::Reset().
struct SolverMetrics {
  telemetry::Counter* solves;
  telemetry::Counter* iterations;
  telemetry::Counter* not_converged;
  telemetry::Counter* infeasible;
  telemetry::Counter* deadline_exceeded;
  telemetry::Counter* numerical_errors;
  telemetry::Histogram* solve_span;

  static const SolverMetrics& Get() {
    static const SolverMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return SolverMetrics{reg.GetCounter("sgp.solver.solves"),
                           reg.GetCounter("sgp.solver.iterations"),
                           reg.GetCounter("sgp.solver.not_converged"),
                           reg.GetCounter("sgp.solver.infeasible"),
                           reg.GetCounter("sgp.solver.deadline_exceeded"),
                           reg.GetCounter("sgp.solver.numerical_errors"),
                           reg.GetHistogram("span.sgp.solve.seconds")};
    }();
    return m;
  }
};

}  // namespace

Status SgpSolverOptions::Validate() const {
  if (!std::isfinite(lambda1) || lambda1 < 0.0) {
    return Status::InvalidArgument(
        "SgpSolverOptions.lambda1 must be finite and >= 0");
  }
  if (!std::isfinite(lambda2) || lambda2 < 0.0) {
    return Status::InvalidArgument(
        "SgpSolverOptions.lambda2 must be finite and >= 0");
  }
  if (continuation_steps < 1) {
    return Status::InvalidArgument(
        "SgpSolverOptions.continuation_steps must be >= 1");
  }
  if (!std::isfinite(deadline_seconds)) {
    return Status::InvalidArgument(
        "SgpSolverOptions.deadline_seconds must be finite");
  }
  if (max_outer_iterations < 1) {
    return Status::InvalidArgument(
        "SgpSolverOptions.max_outer_iterations must be >= 1");
  }
  return inner.Validate();
}

SgpSolution SgpSolver::Solve(const SgpProblem& problem) const {
  const SolverMetrics& metrics = SolverMetrics::Get();
  telemetry::ScopedSpan span(metrics.solve_span);
  SgpSolution solution = SolveDispatch(problem);
  metrics.solves->Increment();
  metrics.iterations->Increment(
      static_cast<uint64_t>(std::max(solution.iterations, 0)));
  if (solution.status.IsNotConverged()) metrics.not_converged->Increment();
  if (solution.status.IsInfeasible()) metrics.infeasible->Increment();
  if (solution.status.IsDeadlineExceeded()) {
    metrics.deadline_exceeded->Increment();
  }
  if (solution.status.IsNumericalError()) {
    metrics.numerical_errors->Increment();
  }
  return solution;
}

SgpSolution SgpSolver::SolveDispatch(const SgpProblem& problem) const {
  SgpSolution solution;
  if (!options_status_.ok()) {
    solution.status = options_status_;
    solution.x = problem.initial();
    return solution;
  }
  Status valid = problem.Validate();
  if (!valid.ok()) {
    solution.status = valid;
    solution.x = problem.initial();
    return solution;
  }
  // Forced-non-convergence injection point: reports the failure a
  // pathological instance would produce, without the cost of producing one.
  if (FaultFires(FaultSite::kSolveNonConvergence)) {
    solution.x = problem.initial();
    solution.total_constraints = static_cast<int>(problem.num_constraints());
    solution.satisfied_constraints =
        CountSatisfied(problem, solution.x, 1e-9);
    solution.status = Status::NotConverged("injected non-convergence");
    return solution;
  }
  switch (options_.formulation) {
    case SgpFormulation::kHardConstraints:
      solution = SolveHard(problem);
      break;
    case SgpFormulation::kDeviationVariables:
      solution = SolveDeviation(problem);
      break;
    case SgpFormulation::kReducedSigmoid:
      solution = SolveReduced(problem);
      break;
    default:
      solution.status = Status::Internal("unknown formulation");
      solution.x = problem.initial();
      break;
  }
  Sanitize(problem, &solution);
  return solution;
}

SgpSolution SgpSolver::SolveHard(const SgpProblem& problem) const {
  Timer timer;
  CompositeObjective objective(options_.lambda1, problem.anchor(),
                               problem.num_variables(), 0.0,
                               kPaperSigmoidSteepness, nullptr, nullptr);
  const ShiftedConstraints constraints(problem.constraint_set(),
                                       kStrictMargin,
                                       ShiftedConstraints::kNoDeviations);

  AugLagOptions auglag;
  auglag.inner = options_.inner;
  auglag.max_outer_iterations = options_.max_outer_iterations;
  auglag.deadline_seconds = RemainingBudget(timer, options_.deadline_seconds);
  AugmentedLagrangianSolver solver(auglag);
  SolveResult result =
      solver.Minimize(objective, constraints, problem.initial(),
                      problem.bounds());

  SgpSolution solution;
  solution.x = std::move(result.x);
  solution.objective = result.objective;
  solution.iterations = result.iterations;
  solution.converged = result.converged;
  solution.status = result.status;
  solution.total_constraints = static_cast<int>(problem.num_constraints());
  solution.satisfied_constraints =
      CountSatisfied(problem, solution.x, kStrictMargin * 0.5);
  return solution;
}

SgpSolution SgpSolver::SolveDeviation(const SgpProblem& problem) const {
  Timer timer;
  // Extend the variable space with one deviation variable per constraint
  // (paper Eq. 15): g_i(x) - d_i <= 0 becomes a hard constraint, and the
  // objective gains sigmoid(w d_i).
  const size_t n = problem.num_variables();
  const SgpConstraints& base = problem.constraint_set();
  const size_t m = base.size();

  std::vector<double> initial = problem.initial();
  BoxBounds bounds = problem.bounds();

  // Deviation variables: bounded generously (similarity differences lie in
  // [-1, 1]; the bound only needs to contain them). Started at a point that
  // makes the initial iterate feasible: d_i = g_i(x0) (clamped).
  constexpr double kDevBound = 4.0;
  std::vector<double> g0;
  base.Evaluate(problem.initial(), &g0, nullptr, nullptr);
  for (size_t i = 0; i < m; ++i) {
    initial.push_back(std::clamp(g0[i], -kDevBound, kDevBound));
    bounds.lower.push_back(-kDevBound);
    bounds.upper.push_back(kDevBound);
  }
  const DeviationTerms deviations(n, m);
  const ShiftedConstraints constraints(base, 0.0, n);

  AugLagOptions auglag;
  auglag.inner = options_.inner;
  auglag.max_outer_iterations = options_.max_outer_iterations;

  std::vector<double> x = initial;
  SolveResult result;
  result.x = x;
  int total_iterations = 0;
  for (double steepness : SteepnessSchedule(kPaperSigmoidSteepness,
                                            options_.continuation_steps)) {
    MaybeInjectStall(FaultSite::kSlowSolve);
    if (options_.deadline_seconds > 0.0 &&
        timer.ElapsedSeconds() >= options_.deadline_seconds) {
      result.converged = false;
      result.status =
          Status::DeadlineExceeded("SGP solve wall budget expired");
      break;
    }
    auglag.deadline_seconds =
        RemainingBudget(timer, options_.deadline_seconds);
    AugmentedLagrangianSolver solver(auglag);
    CompositeObjective objective(options_.lambda1, problem.anchor(), n,
                                 options_.lambda2, steepness, &deviations,
                                 &base);
    result = solver.Minimize(objective, constraints, x, bounds);
    x = result.x;
    total_iterations += result.iterations;
    // A numerical failure or expired budget will not improve at steeper
    // sigmoids; stop the continuation and surface the failure.
    if (result.status.IsNumericalError() ||
        result.status.IsDeadlineExceeded()) {
      break;
    }
  }
  result.iterations = total_iterations;
  result.x = std::move(x);

  SgpSolution solution;
  solution.x.assign(result.x.begin(), result.x.begin() + n);
  solution.objective = result.objective;
  solution.iterations = result.iterations;
  solution.converged = result.converged;
  solution.status = result.status;
  solution.total_constraints = static_cast<int>(m);
  solution.satisfied_constraints = CountSatisfied(problem, solution.x, 1e-9);
  return solution;
}

SgpSolution SgpSolver::SolveReduced(const SgpProblem& problem) const {
  Timer timer;
  // Substitute d_i = g_i(x): minimize
  //   lambda1 * prox + lambda2 * sum_i weight_i * sigmoid(w g_i(x))
  // over the box. Smooth, unconstrained besides the box.
  const SgpConstraints& constraints = problem.constraint_set();
  std::vector<double> x = problem.initial();
  SolveResult result;
  result.x = x;
  int total_iterations = 0;
  for (double steepness : SteepnessSchedule(kPaperSigmoidSteepness,
                                            options_.continuation_steps)) {
    MaybeInjectStall(FaultSite::kSlowSolve);
    if (options_.deadline_seconds > 0.0 &&
        timer.ElapsedSeconds() >= options_.deadline_seconds) {
      result.converged = false;
      result.status =
          Status::DeadlineExceeded("SGP solve wall budget expired");
      break;
    }
    SolveOptions inner = options_.inner;
    double remaining = RemainingBudget(timer, options_.deadline_seconds);
    if (remaining > 0.0) {
      inner.deadline_seconds = inner.deadline_seconds > 0.0
                                   ? std::min(inner.deadline_seconds, remaining)
                                   : remaining;
    }
    CompositeObjective objective(options_.lambda1, problem.anchor(),
                                 problem.num_variables(), options_.lambda2,
                                 steepness, &constraints, &constraints);
    result = ProjectedBbSolver(inner).Minimize(objective, x, problem.bounds());
    x = result.x;
    total_iterations += result.iterations;
    if (result.status.IsNumericalError() ||
        result.status.IsDeadlineExceeded()) {
      break;
    }
  }
  result.iterations = total_iterations;

  SgpSolution solution;
  solution.x = std::move(result.x);
  solution.objective = result.objective;
  solution.iterations = result.iterations;
  solution.converged = result.converged;
  solution.status = result.status;
  solution.total_constraints = static_cast<int>(problem.num_constraints());
  solution.satisfied_constraints = CountSatisfied(problem, solution.x, 1e-9);
  return solution;
}

}  // namespace kgov::math
