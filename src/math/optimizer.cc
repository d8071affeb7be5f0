#include "math/optimizer.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "common/fault_injection.h"
#include "common/contracts.h"
#include "common/logging.h"
#include "common/timer.h"
#include "math/vector_ops.h"
#include <string>

namespace kgov::math {

Status SolveOptions::Validate() const {
  if (max_iterations < 1) {
    return Status::InvalidArgument(
        "SolveOptions.max_iterations must be >= 1, got " +
        std::to_string(max_iterations));
  }
  // 0 is legal: it turns the gradient test off, so only the iteration
  // cap, the value test or the deadline ends a solve.
  if (!(gradient_tolerance >= 0.0) || !std::isfinite(gradient_tolerance)) {
    return Status::InvalidArgument(
        "SolveOptions.gradient_tolerance must be finite and >= 0, got " +
        std::to_string(gradient_tolerance));
  }
  if (!(value_tolerance >= 0.0) || !std::isfinite(value_tolerance)) {
    return Status::InvalidArgument(
        "SolveOptions.value_tolerance must be finite and >= 0, got " +
        std::to_string(value_tolerance));
  }
  return Status::OK();
}

Status AugLagOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(inner.Validate());
  if (max_outer_iterations < 1) {
    return Status::InvalidArgument(
        "AugLagOptions.max_outer_iterations must be >= 1, got " +
        std::to_string(max_outer_iterations));
  }
  return Status::OK();
}

namespace {

// Projected-BB line search: Armijo sufficient-decrease parameter, the
// backtracking shrink factor, and the nonmonotone reference window
// (Grippo-Lampariello-Lucidi; 1 would be monotone).
constexpr double kArmijoC = 1e-4;
constexpr double kBacktrackRho = 0.5;
constexpr size_t kNonmonotoneWindow = 8;

// Augmented-Lagrangian penalty schedule: mu starts at kInitialPenalty and
// grows by kPenaltyGrowth (capped at kMaxPenalty) after every outer
// iteration whose max violation did not shrink below kRequiredProgress
// times the previous one. Feasible when the max violation is at most
// kFeasibilityTolerance.
constexpr double kInitialPenalty = 10.0;
constexpr double kPenaltyGrowth = 4.0;
constexpr double kRequiredProgress = 0.5;
constexpr double kFeasibilityTolerance = 1e-8;
constexpr double kMaxPenalty = 1e10;

bool AllFinite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// NaN-gradient injection point: poisons the freshly computed gradient so the
// solvers' non-finite guards are exercised by real solve paths in tests.
void MaybePoisonGradient(std::vector<double>* grad) {
  if (!grad->empty() && FaultFires(FaultSite::kNanGradient)) {
    (*grad)[0] = std::numeric_limits<double>::quiet_NaN();
  }
}

// True when the deadline is enabled and `timer` has passed it.
bool DeadlineExpired(const Timer& timer, double deadline_seconds) {
  return deadline_seconds > 0.0 &&
         timer.ElapsedSeconds() >= deadline_seconds;
}

// Projected point x - t*g, clamped to the box.
std::vector<double> ProjectedStep(const std::vector<double>& x,
                                  const std::vector<double>& direction,
                                  double t, const BoxBounds& bounds) {
  std::vector<double> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] + t * direction[i];
  }
  bounds.Project(&out);
  return out;
}

// Projected gradient: P(x - g) - x, the first-order stationarity measure for
// box-constrained problems.
std::vector<double> ProjectedGradient(const std::vector<double>& x,
                                      const std::vector<double>& grad,
                                      const BoxBounds& bounds) {
  std::vector<double> probe(x.size());
  for (size_t i = 0; i < x.size(); ++i) probe[i] = x[i] - grad[i];
  bounds.Project(&probe);
  for (size_t i = 0; i < x.size(); ++i) probe[i] -= x[i];
  return probe;
}

}  // namespace

BoxBounds BoxBounds::Uniform(size_t n, double lo, double hi) {
  KGOV_CHECK(lo <= hi);
  BoxBounds b;
  b.lower.assign(n, lo);
  b.upper.assign(n, hi);
  return b;
}

void BoxBounds::Project(std::vector<double>* x) const {
  if (!lower.empty()) {
    KGOV_DCHECK(lower.size() == x->size());
    for (size_t i = 0; i < x->size(); ++i) {
      (*x)[i] = std::max((*x)[i], lower[i]);
    }
  }
  if (!upper.empty()) {
    KGOV_DCHECK(upper.size() == x->size());
    for (size_t i = 0; i < x->size(); ++i) {
      (*x)[i] = std::min((*x)[i], upper[i]);
    }
  }
}

bool BoxBounds::Contains(const std::vector<double>& x, double tol) const {
  for (size_t i = 0; i < x.size(); ++i) {
    if (!lower.empty() && x[i] < lower[i] - tol) return false;
    if (!upper.empty() && x[i] > upper[i] + tol) return false;
  }
  return true;
}

SolveResult ProjectedBbSolver::Minimize(const DifferentiableFunction& f,
                                        const std::vector<double>& x0,
                                        const BoxBounds& bounds) const {
  SolveResult result;
  Timer timer;
  std::vector<double> x = x0;
  bounds.Project(&x);
  if (!options_status_.ok()) {
    result.x = std::move(x);
    result.status = options_status_;
    return result;
  }

  std::vector<double> grad;
  double fx = f.Evaluate(x, &grad);
  MaybePoisonGradient(&grad);
  KGOV_DCHECK(grad.size() == x.size());
  if (!std::isfinite(fx) || !AllFinite(grad)) {
    result.x = std::move(x);
    result.objective = fx;
    result.status = Status::NumericalError(
        "non-finite objective or gradient at the initial point");
    return result;
  }

  // Nonmonotone reference values (Grippo-Lampariello-Lucidi style).
  std::deque<double> recent_values = {fx};

  double step = 1.0;
  std::vector<double> prev_x = x;
  std::vector<double> prev_grad = grad;
  bool have_history = false;
  Status guard;  // set on deadline expiry or non-finite detection

  int iter = 0;
  for (; iter < options_.max_iterations; ++iter) {
    if (DeadlineExpired(timer, options_.deadline_seconds)) {
      guard = Status::DeadlineExceeded("projected BB wall budget expired");
      break;
    }
    std::vector<double> pg = ProjectedGradient(x, grad, bounds);
    if (NormInf(pg) <= options_.gradient_tolerance) {
      result.converged = true;
      break;
    }

    if (have_history) {
      // Barzilai-Borwein step length: <s,s>/<s,y> (BB1).
      std::vector<double> s = Subtract(x, prev_x);
      std::vector<double> y = Subtract(grad, prev_grad);
      double sy = Dot(s, y);
      double ss = Dot(s, s);
      if (sy > 1e-16 && ss > 0.0) {
        step = ss / sy;
      } else {
        step = 1.0;
      }
      step = std::clamp(step, 1e-10, 1e10);
    }

    // Descent direction: negative gradient.
    std::vector<double> direction(grad.size());
    for (size_t i = 0; i < grad.size(); ++i) direction[i] = -grad[i];

    // Nonmonotone Armijo backtracking on the projected arc.
    double reference =
        *std::max_element(recent_values.begin(), recent_values.end());
    double t = step;
    std::vector<double> candidate;
    double f_candidate = 0.0;
    bool accepted = false;
    for (int bt = 0; bt < 60; ++bt) {
      candidate = ProjectedStep(x, direction, t, bounds);
      std::vector<double> delta = Subtract(candidate, x);
      double directional = Dot(grad, delta);
      f_candidate = f.Evaluate(candidate, nullptr);
      if (std::isfinite(f_candidate) &&
          f_candidate <= reference + kArmijoC * directional) {
        accepted = true;
        break;
      }
      if (NormInf(delta) < 1e-16) break;  // step fully absorbed by the box
      t *= kBacktrackRho;
    }
    if (!accepted) {
      // Could not make progress along the projected arc.
      result.converged = NormInf(pg) <= 1e2 * options_.gradient_tolerance;
      break;
    }

    prev_x.swap(x);
    prev_grad.swap(grad);
    x = std::move(candidate);
    double f_prev = fx;
    fx = f.Evaluate(x, &grad);
    MaybePoisonGradient(&grad);
    if (!std::isfinite(fx) || !AllFinite(grad)) {
      // Fall back to the last finite iterate.
      x = std::move(prev_x);
      grad = std::move(prev_grad);
      fx = f_prev;
      guard = Status::NumericalError(
          "non-finite objective or gradient at iteration " +
          std::to_string(iter));
      break;
    }
    have_history = true;

    recent_values.push_back(fx);
    while (recent_values.size() > kNonmonotoneWindow) {
      recent_values.pop_front();
    }

    if (std::fabs(fx - f_prev) <=
        options_.value_tolerance * (1.0 + std::fabs(fx))) {
      result.converged = true;
      ++iter;
      break;
    }
  }

  result.x = std::move(x);
  result.objective = fx;
  result.iterations = iter;
  if (!guard.ok()) {
    result.converged = false;
    result.status = guard;
  } else {
    result.status =
        result.converged
            ? Status::OK()
            : Status::NotConverged("projected BB hit iteration cap");
  }
  return result;
}

double AugmentedLagrangianSolver::MaxViolation(
    const std::vector<const DifferentiableFunction*>& constraints,
    const std::vector<double>& x) {
  double worst = 0.0;
  for (const auto* g : constraints) {
    worst = std::max(worst, g->Evaluate(x, nullptr));
  }
  return std::max(worst, 0.0);
}

namespace {

// One scalar DifferentiableFunction per constraint, as a ConstraintSet.
class FunctionConstraints final : public ConstraintSet {
 public:
  explicit FunctionConstraints(
      const std::vector<const DifferentiableFunction*>& functions)
      : functions_(functions) {}

  size_t size() const override { return functions_.size(); }

  void Evaluate(const std::vector<double>& x, std::vector<double>* values,
                const Cotangent* cotangent,
                std::vector<double>* grad) const override {
    values->resize(functions_.size());
    std::vector<double> g_grad;
    for (size_t i = 0; i < functions_.size(); ++i) {
      (*values)[i] = functions_[i]->Evaluate(x, grad ? &g_grad : nullptr);
      if (grad == nullptr) continue;
      const double weight = (*cotangent)(i, (*values)[i]);
      if (weight == 0.0) continue;
      KGOV_DCHECK(g_grad.size() == x.size());
      Axpy(weight, g_grad, grad);
    }
  }

 private:
  const std::vector<const DifferentiableFunction*>& functions_;
};

}  // namespace

SolveResult AugmentedLagrangianSolver::Minimize(
    const DifferentiableFunction& objective,
    const std::vector<const DifferentiableFunction*>& constraints,
    const std::vector<double>& x0, const BoxBounds& bounds) const {
  return Minimize(objective, FunctionConstraints(constraints), x0, bounds);
}

SolveResult AugmentedLagrangianSolver::Minimize(
    const DifferentiableFunction& objective, const ConstraintSet& constraints,
    const std::vector<double>& x0, const BoxBounds& bounds) const {
  Timer timer;
  std::vector<double> x = x0;
  bounds.Project(&x);
  if (!options_status_.ok()) {
    SolveResult result;
    result.x = std::move(x);
    result.status = options_status_;
    return result;
  }

  if (constraints.size() == 0) {
    SolveOptions inner_options = options_.inner;
    if (options_.deadline_seconds > 0.0) {
      inner_options.deadline_seconds =
          inner_options.deadline_seconds > 0.0
              ? std::min(inner_options.deadline_seconds,
                         options_.deadline_seconds)
              : options_.deadline_seconds;
    }
    ProjectedBbSolver inner(inner_options);
    return inner.Minimize(objective, x, bounds);
  }

  std::vector<double> lambda(constraints.size(), 0.0);
  double mu = kInitialPenalty;
  double previous_violation = std::numeric_limits<double>::infinity();
  std::vector<double> g;

  SolveResult last_inner;
  int total_inner_iterations = 0;
  Status guard;  // deadline expiry or numerical failure from an inner solve

  for (int outer = 0; outer < options_.max_outer_iterations; ++outer) {
    double remaining = 0.0;
    if (options_.deadline_seconds > 0.0) {
      remaining = options_.deadline_seconds - timer.ElapsedSeconds();
      if (remaining <= 0.0) {
        guard = Status::DeadlineExceeded(
            "augmented Lagrangian wall budget expired");
        break;
      }
    }
    // PHR augmented Lagrangian for inequality constraints: constraint i
    // adds max(0, lambda_i + mu g_i) * grad g_i to the gradient, so that
    // clamped shift is its VJP weight.
    const ConstraintSet::Cotangent shift = [&](size_t i, double gi) {
      return std::max(0.0, lambda[i] + mu * gi);
    };
    CallbackFunction auglag([&](const std::vector<double>& point,
                                std::vector<double>* grad) {
      double value = objective.Evaluate(point, grad);
      constraints.Evaluate(point, &g, grad ? &shift : nullptr, grad);
      for (size_t i = 0; i < g.size(); ++i) {
        double shifted = lambda[i] + mu * g[i];
        if (shifted > 0.0) {
          value += (shifted * shifted - lambda[i] * lambda[i]) / (2.0 * mu);
        } else {
          value -= lambda[i] * lambda[i] / (2.0 * mu);
        }
      }
      return value;
    });

    SolveOptions inner_options = options_.inner;
    if (remaining > 0.0) {
      inner_options.deadline_seconds =
          inner_options.deadline_seconds > 0.0
              ? std::min(inner_options.deadline_seconds, remaining)
              : remaining;
    }
    last_inner = ProjectedBbSolver(inner_options).Minimize(auglag, x, bounds);
    x = last_inner.x;
    total_inner_iterations += last_inner.iterations;
    if (last_inner.status.IsNumericalError()) {
      guard = last_inner.status;
      break;
    }

    // Multiplier update and violation bookkeeping.
    double violation = 0.0;
    constraints.Evaluate(x, &g, nullptr, nullptr);
    for (size_t i = 0; i < g.size(); ++i) {
      lambda[i] = std::max(0.0, lambda[i] + mu * g[i]);
      violation = std::max(violation, std::max(g[i], 0.0));
    }

    if (violation <= kFeasibilityTolerance) {
      SolveResult result;
      result.x = std::move(x);
      result.objective = objective.Evaluate(result.x, nullptr);
      result.iterations = total_inner_iterations;
      result.converged = true;
      result.status = Status::OK();
      return result;
    }

    if (violation > kRequiredProgress * previous_violation) {
      mu = std::min(mu * kPenaltyGrowth, kMaxPenalty);
    }
    previous_violation = violation;
  }

  SolveResult result;
  result.x = std::move(x);
  result.objective = objective.Evaluate(result.x, nullptr);
  result.iterations = total_inner_iterations;
  result.converged = false;
  if (!guard.ok()) {
    result.status = guard;
    return result;
  }
  constraints.Evaluate(result.x, &g, nullptr, nullptr);
  double final_violation = 0.0;
  for (double gi : g) final_violation = std::max(final_violation, gi);
  result.status = Status::Infeasible(
      "augmented Lagrangian could not reach feasibility; max violation " +
      std::to_string(final_violation));
  return result;
}

double MaxGradientError(const DifferentiableFunction& f,
                        const std::vector<double>& x, double step) {
  std::vector<double> analytic;
  f.Evaluate(x, &analytic);
  double worst = 0.0;
  std::vector<double> probe = x;
  for (size_t i = 0; i < x.size(); ++i) {
    probe[i] = x[i] + step;
    double fp = f.Evaluate(probe, nullptr);
    probe[i] = x[i] - step;
    double fm = f.Evaluate(probe, nullptr);
    probe[i] = x[i];
    double numeric = (fp - fm) / (2.0 * step);
    worst = std::max(worst, std::fabs(numeric - analytic[i]));
  }
  return worst;
}

}  // namespace kgov::math
