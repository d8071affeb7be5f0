#include "math/optimizer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/timer.h"

namespace kgov::math {
namespace {

// f(x) = (x0-1)^2 + (x1+2)^2, minimum at (1, -2).
class Quadratic : public DifferentiableFunction {
 public:
  double Evaluate(const std::vector<double>& x,
                  std::vector<double>* grad) const override {
    double a = x[0] - 1.0;
    double b = x[1] + 2.0;
    if (grad) {
      grad->assign(2, 0.0);
      (*grad)[0] = 2.0 * a;
      (*grad)[1] = 2.0 * b;
    }
    return a * a + b * b;
  }
};

// Rosenbrock: minimum at (1, 1), notoriously curved valley.
class Rosenbrock : public DifferentiableFunction {
 public:
  double Evaluate(const std::vector<double>& x,
                  std::vector<double>* grad) const override {
    double a = 1.0 - x[0];
    double b = x[1] - x[0] * x[0];
    if (grad) {
      grad->assign(2, 0.0);
      (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
      (*grad)[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
  }
};

TEST(BoxBoundsTest, UniformConstruction) {
  BoxBounds b = BoxBounds::Uniform(3, -1.0, 2.0);
  EXPECT_EQ(b.lower, (std::vector<double>{-1.0, -1.0, -1.0}));
  EXPECT_EQ(b.upper, (std::vector<double>{2.0, 2.0, 2.0}));
  EXPECT_FALSE(b.IsUnbounded());
}

TEST(BoxBoundsTest, ProjectClamps) {
  BoxBounds b = BoxBounds::Uniform(2, 0.0, 1.0);
  std::vector<double> x{-0.5, 1.5};
  b.Project(&x);
  EXPECT_EQ(x, (std::vector<double>{0.0, 1.0}));
}

TEST(BoxBoundsTest, UnboundedProjectIsIdentity) {
  BoxBounds b = BoxBounds::Unbounded();
  std::vector<double> x{-100.0, 100.0};
  b.Project(&x);
  EXPECT_EQ(x, (std::vector<double>{-100.0, 100.0}));
}

TEST(BoxBoundsTest, Contains) {
  BoxBounds b = BoxBounds::Uniform(2, 0.0, 1.0);
  EXPECT_TRUE(b.Contains({0.5, 1.0}));
  EXPECT_FALSE(b.Contains({-0.1, 0.5}));
  EXPECT_TRUE(BoxBounds::Unbounded().Contains({1e30}));
}

TEST(ProjectedBbTest, SolvesQuadratic) {
  Quadratic f;
  ProjectedBbSolver solver;
  SolveResult r = solver.Minimize(f, {5.0, 5.0}, BoxBounds::Unbounded());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], -2.0, 1e-5);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(ProjectedBbTest, RespectsBoxConstraint) {
  Quadratic f;  // unconstrained min at (1, -2)
  ProjectedBbSolver solver;
  BoxBounds box = BoxBounds::Uniform(2, 0.0, 0.5);
  SolveResult r = solver.Minimize(f, {0.2, 0.2}, box);
  // Constrained minimum: x0 = 0.5 (closest to 1), x1 = 0 (closest to -2).
  EXPECT_NEAR(r.x[0], 0.5, 1e-6);
  EXPECT_NEAR(r.x[1], 0.0, 1e-6);
  EXPECT_TRUE(box.Contains(r.x));
}

TEST(ProjectedBbTest, SolvesRosenbrock) {
  Rosenbrock f;
  SolveOptions options;
  options.max_iterations = 5000;
  ProjectedBbSolver solver(options);
  SolveResult r = solver.Minimize(f, {-1.2, 1.0}, BoxBounds::Unbounded());
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(ProjectedBbTest, StartsOutsideBoxGetsProjected) {
  Quadratic f;
  ProjectedBbSolver solver;
  BoxBounds box = BoxBounds::Uniform(2, 0.0, 2.0);
  SolveResult r = solver.Minimize(f, {50.0, -50.0}, box);
  EXPECT_TRUE(box.Contains(r.x));
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], 0.0, 1e-5);
}

TEST(AugLagTest, NoConstraintsReducesToUnconstrained) {
  Quadratic f;
  AugmentedLagrangianSolver solver;
  SolveResult r = solver.Minimize(f, {}, {4.0, 4.0}, BoxBounds::Unbounded());
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], -2.0, 1e-5);
}

TEST(AugLagTest, ActiveInequalityConstraint) {
  // min (x0-1)^2 + (x1+2)^2 s.t. x0 + x1 >= 1  (i.e. 1 - x0 - x1 <= 0).
  // Lagrangian optimum: x = (2, -1).
  Quadratic f;
  CallbackFunction g([](const std::vector<double>& x,
                        std::vector<double>* grad) {
    if (grad) {
      grad->assign(2, 0.0);
      (*grad)[0] = -1.0;
      (*grad)[1] = -1.0;
    }
    return 1.0 - x[0] - x[1];
  });
  AugmentedLagrangianSolver solver;
  SolveResult r =
      solver.Minimize(f, {&g}, {0.0, 0.0}, BoxBounds::Unbounded());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-3);
  EXPECT_NEAR(r.x[1], -1.0, 1e-3);
  EXPECT_LE(g.Evaluate(r.x, nullptr), 1e-6);
}

TEST(AugLagTest, InactiveConstraintIgnored) {
  // Constraint x0 <= 10 is inactive at the unconstrained optimum.
  Quadratic f;
  CallbackFunction g([](const std::vector<double>& x,
                        std::vector<double>* grad) {
    if (grad) {
      grad->assign(2, 0.0);
      (*grad)[0] = 1.0;
    }
    return x[0] - 10.0;
  });
  AugmentedLagrangianSolver solver;
  SolveResult r =
      solver.Minimize(f, {&g}, {0.0, 0.0}, BoxBounds::Unbounded());
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], -2.0, 1e-4);
}

TEST(AugLagTest, InfeasibleProblemReported) {
  // x0 <= -1 and x0 >= 1 cannot both hold.
  Quadratic f;
  CallbackFunction g1([](const std::vector<double>& x,
                         std::vector<double>* grad) {
    if (grad) {
      grad->assign(2, 0.0);
      (*grad)[0] = 1.0;
    }
    return x[0] + 1.0;  // x0 <= -1
  });
  CallbackFunction g2([](const std::vector<double>& x,
                         std::vector<double>* grad) {
    if (grad) {
      grad->assign(2, 0.0);
      (*grad)[0] = -1.0;
    }
    return 1.0 - x[0];  // x0 >= 1
  });
  AugLagOptions options;
  options.max_outer_iterations = 10;
  AugmentedLagrangianSolver solver(options);
  SolveResult r =
      solver.Minimize(f, {&g1, &g2}, {0.0, 0.0}, BoxBounds::Unbounded());
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.status.IsInfeasible());
}

TEST(AugLagTest, MaxViolationHelper) {
  CallbackFunction g([](const std::vector<double>& x,
                        std::vector<double>*) { return x[0] - 1.0; });
  EXPECT_DOUBLE_EQ(AugmentedLagrangianSolver::MaxViolation({&g}, {3.0}), 2.0);
  EXPECT_DOUBLE_EQ(AugmentedLagrangianSolver::MaxViolation({&g}, {0.0}), 0.0);
}

TEST(GradientCheckTest, DetectsCorrectGradient) {
  Rosenbrock f;
  EXPECT_LT(MaxGradientError(f, {0.3, -0.7}), 1e-4);
}

TEST(GradientCheckTest, DetectsWrongGradient) {
  CallbackFunction broken([](const std::vector<double>& x,
                             std::vector<double>* grad) {
    if (grad) grad->assign(1, 0.0);  // claims zero gradient
    return x[0] * x[0];
  });
  EXPECT_GT(MaxGradientError(broken, {1.0}), 1.0);
}

// A slow-converging objective whose every evaluation burns wall time, for
// deadline tests. Rosenbrock (not Quadratic) because an exact-arithmetic
// minimum would satisfy even a zero tolerance and end the solve early.
class SlowRosenbrock : public DifferentiableFunction {
 public:
  explicit SlowRosenbrock(double sleep_seconds)
      : sleep_(std::chrono::duration<double>(sleep_seconds)) {}

  double Evaluate(const std::vector<double>& x,
                  std::vector<double>* grad) const override {
    std::this_thread::sleep_for(sleep_);
    Rosenbrock base;
    return base.Evaluate(x, grad);
  }

 private:
  std::chrono::duration<double> sleep_;
};

TEST(DeadlineTest, ProjectedBbHonorsDeadline) {
  SlowRosenbrock f(5e-4);
  SolveOptions options;
  options.max_iterations = 1000000;
  options.gradient_tolerance = 0.0;
  options.value_tolerance = 0.0;
  options.deadline_seconds = 0.05;
  Timer timer;
  SolveResult r = ProjectedBbSolver(options).Minimize(
      f, {-1.2, 1.0}, BoxBounds::Unbounded());
  double elapsed = timer.ElapsedSeconds();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_FALSE(r.converged);
  // Must return promptly: within 2x the budget (the acceptance bar),
  // where one in-flight evaluation bounds the overshoot.
  EXPECT_LT(elapsed, 2.0 * options.deadline_seconds);
  // The best-so-far iterate is still returned, finite.
  ASSERT_EQ(r.x.size(), 2u);
  EXPECT_TRUE(std::isfinite(r.x[0]) && std::isfinite(r.x[1]));
}

TEST(DeadlineTest, AugLagHonorsDeadlineAcrossOuterIterations) {
  // Slow enough that the deadline expires well before the infeasibility
  // detector has seen enough stagnant outer iterations to give up.
  SlowRosenbrock f(2e-3);
  // Unsatisfiable constraint keeps the outer loop running.
  CallbackFunction g([](const std::vector<double>& x,
                        std::vector<double>* grad) {
    if (grad) grad->assign(x.size(), 0.0);
    if (grad) (*grad)[0] = 1.0;
    return x[0] + 100.0;  // x0 <= -100 vs box below
  });
  AugLagOptions options;
  options.inner.max_iterations = 1000000;
  options.inner.gradient_tolerance = 0.0;
  options.inner.value_tolerance = 0.0;
  options.deadline_seconds = 0.05;
  Timer timer;
  SolveResult r = AugmentedLagrangianSolver(options).Minimize(
      f, {&g}, {0.0, 0.0}, BoxBounds::Uniform(2, -1.0, 1.0));
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_LT(timer.ElapsedSeconds(), 2.0 * options.deadline_seconds);
}

TEST(NumericalGuardTest, NanObjectiveAtStartReportsNumericalError) {
  CallbackFunction f([](const std::vector<double>&,
                        std::vector<double>* grad) {
    if (grad) grad->assign(1, 0.0);
    return std::numeric_limits<double>::quiet_NaN();
  });
  SolveResult r =
      ProjectedBbSolver().Minimize(f, {0.5}, BoxBounds::Uniform(1, 0.0, 1.0));
  EXPECT_TRUE(r.status.IsNumericalError()) << r.status.ToString();
  EXPECT_FALSE(r.converged);
}

TEST(NumericalGuardTest, MidSolveNanGradientKeepsLastFiniteIterate) {
  // The gradient turns NaN a few iterations in; the solver must report
  // NumericalError and hand back the last finite iterate, not garbage.
  auto counter = std::make_shared<int>(0);
  CallbackFunction f([counter](const std::vector<double>& x,
                               std::vector<double>* grad) {
    Rosenbrock base;
    double value = base.Evaluate(x, grad);
    if (grad && ++*counter > 2) {
      (*grad)[0] = std::numeric_limits<double>::quiet_NaN();
    }
    return value;
  });
  SolveResult r =
      ProjectedBbSolver().Minimize(f, {-1.2, 1.0}, BoxBounds::Unbounded());
  EXPECT_TRUE(r.status.IsNumericalError()) << r.status.ToString();
  ASSERT_EQ(r.x.size(), 2u);
  EXPECT_TRUE(std::isfinite(r.x[0]) && std::isfinite(r.x[1]));
}

// Both solvers validate their options at construction and fail fast:
// Minimize returns InvalidArgument naming the field, at the projected
// start point, without evaluating anything.
TEST(OptionsValidationTest, InvalidOptionReturnsInvalidArgument) {
  auto evaluations = std::make_shared<int>(0);
  CallbackFunction f([evaluations](const std::vector<double>& x,
                                   std::vector<double>* grad) {
    ++*evaluations;
    return Quadratic().Evaluate(x, grad);
  });
  CallbackFunction g([evaluations](const std::vector<double>& x,
                                   std::vector<double>* grad) {
    ++*evaluations;
    if (grad) grad->assign(x.size(), 0.0);
    return -1.0;
  });
  const BoxBounds box = BoxBounds::Uniform(2, -1.0, 1.0);
  const std::vector<double> start = {5.0, 5.0};
  const std::vector<double> projected = {1.0, 1.0};
  auto expect_invalid = [&](const SolveResult& r, const char* field) {
    EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
    EXPECT_NE(r.status.message().find(field), std::string::npos)
        << r.status.message();
    EXPECT_EQ(r.x, projected);
    EXPECT_FALSE(r.converged);
  };

  struct Case {
    void (*mutate)(SolveOptions&);
    const char* field;
  };
  const Case cases[] = {
      {[](SolveOptions& o) { o.max_iterations = 0; }, "max_iterations"},
      {[](SolveOptions& o) { o.gradient_tolerance = -1e-9; },
       "gradient_tolerance"},
      {[](SolveOptions& o) {
         o.gradient_tolerance = std::numeric_limits<double>::quiet_NaN();
       },
       "gradient_tolerance"},
      {[](SolveOptions& o) {
         o.value_tolerance = std::numeric_limits<double>::infinity();
       },
       "value_tolerance"},
  };
  for (const Case& c : cases) {
    SolveOptions options;
    c.mutate(options);
    expect_invalid(ProjectedBbSolver(options).Minimize(f, start, box),
                   c.field);
    AugLagOptions auglag;
    auglag.inner = options;
    expect_invalid(
        AugmentedLagrangianSolver(auglag).Minimize(f, {&g}, start, box),
        c.field);
  }
  AugLagOptions outer;
  outer.max_outer_iterations = 0;
  expect_invalid(AugmentedLagrangianSolver(outer).Minimize(f, {}, start, box),
                 "max_outer_iterations");
  EXPECT_EQ(*evaluations, 0);

  // A zero gradient tolerance only turns the gradient test off.
  SolveOptions zero;
  zero.gradient_tolerance = 0.0;
  EXPECT_TRUE(zero.Validate().ok());
  EXPECT_TRUE(ProjectedBbSolver(zero).Minimize(f, start, box).status.ok());
}

}  // namespace
}  // namespace kgov::math
