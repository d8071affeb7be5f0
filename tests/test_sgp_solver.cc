#include "math/sgp_solver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "math/sgp_problem.h"

namespace kgov::math {
namespace {

// Builds the toy program used across tests:
//   variables x0 (init 0.3), x1 (init 0.7), box [0.01, 1]
//   constraint: x1 - x0 <= 0  (wants x0 >= x1; initially violated)
SgpProblem MakeSwapProblem() {
  SgpProblem problem;
  problem.AddVariable(0.3, 0.01, 1.0);
  problem.AddVariable(0.7, 0.01, 1.0);
  Signomial g;
  g.AddTerm(Monomial(1.0, {{1, 1.0}}));
  g.AddTerm(Monomial(-1.0, {{0, 1.0}}));
  problem.AddConstraint(g, "x1<=x0");
  return problem;
}

TEST(SgpProblemTest, AddVariableAssignsSequentialIds) {
  SgpProblem problem;
  EXPECT_EQ(problem.AddVariable(0.5, 0.0, 1.0), 0u);
  EXPECT_EQ(problem.AddVariable(0.1, 0.0, 1.0), 1u);
  EXPECT_EQ(problem.num_variables(), 2u);
  EXPECT_EQ(problem.initial(), (std::vector<double>{0.5, 0.1}));
}

TEST(SgpProblemTest, AnchorDefaultsToInitial) {
  SgpProblem problem;
  problem.AddVariable(0.4, 0.0, 1.0);
  EXPECT_EQ(problem.anchor(), problem.initial());
  problem.SetAnchor({0.9});
  EXPECT_EQ(problem.anchor(), (std::vector<double>{0.9}));
}

TEST(SgpProblemTest, ValidateCatchesUndeclaredVariables) {
  SgpProblem problem;
  problem.AddVariable(0.5, 0.0, 1.0);
  Signomial g(Monomial(1.0, {{5, 1.0}}));  // x5 does not exist
  problem.AddConstraint(g, "bad");
  EXPECT_FALSE(problem.Validate().ok());
}

TEST(SgpProblemTest, ValidateCatchesBadAnchor) {
  SgpProblem problem;
  problem.AddVariable(0.5, 0.0, 1.0);
  problem.SetAnchor({0.1, 0.2});
  EXPECT_FALSE(problem.Validate().ok());
}

TEST(SgpProblemTest, ValidatePassesOnWellFormed) {
  EXPECT_TRUE(MakeSwapProblem().Validate().ok());
}

TEST(SgpSolverTest, HardConstraintsEnforceInequality) {
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kHardConstraints;
  SgpSolver solver(options);
  SgpSolution solution = solver.Solve(MakeSwapProblem());
  ASSERT_EQ(solution.x.size(), 2u);
  // x0 must end at least as large as x1 (within margin).
  EXPECT_GE(solution.x[0], solution.x[1] - 1e-6);
  EXPECT_EQ(solution.satisfied_constraints, 1);
  EXPECT_TRUE(solution.converged);
}

TEST(SgpSolverTest, HardConstraintsMinimizeChange) {
  // Optimal feasible point keeps x0 + x1 near the original values: both
  // should move toward 0.5 (the proximal optimum on the boundary x0 = x1).
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kHardConstraints;
  SgpSolver solver(options);
  SgpSolution solution = solver.Solve(MakeSwapProblem());
  EXPECT_NEAR(solution.x[0], 0.5, 0.05);
  EXPECT_NEAR(solution.x[1], 0.5, 0.05);
}

TEST(SgpSolverTest, ReducedSigmoidSatisfiesConstraint) {
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kReducedSigmoid;
  options.lambda1 = 0.5;
  options.lambda2 = 0.5;
  SgpSolver solver(options);
  SgpSolution solution = solver.Solve(MakeSwapProblem());
  EXPECT_GE(solution.x[0], solution.x[1] - 1e-6);
  EXPECT_EQ(solution.satisfied_constraints, 1);
}

TEST(SgpSolverTest, DeviationFormSatisfiesConstraint) {
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kDeviationVariables;
  SgpSolver solver(options);
  SgpSolution solution = solver.Solve(MakeSwapProblem());
  ASSERT_EQ(solution.x.size(), 2u);  // deviation variables stripped
  EXPECT_GE(solution.x[0], solution.x[1] - 1e-4);
}

TEST(SgpSolverTest, FormulationsAgreeOnSatisfiableProblem) {
  SgpSolverOptions base;
  base.lambda1 = 0.5;
  base.lambda2 = 0.5;

  base.formulation = SgpFormulation::kReducedSigmoid;
  SgpSolution reduced = SgpSolver(base).Solve(MakeSwapProblem());
  base.formulation = SgpFormulation::kDeviationVariables;
  SgpSolution deviation = SgpSolver(base).Solve(MakeSwapProblem());

  // Both must satisfy the constraint; the solutions should land close.
  EXPECT_EQ(reduced.satisfied_constraints, 1);
  EXPECT_EQ(deviation.satisfied_constraints, 1);
  EXPECT_NEAR(reduced.x[0], deviation.x[0], 0.1);
  EXPECT_NEAR(reduced.x[1], deviation.x[1], 0.1);
}

TEST(SgpSolverTest, ConflictingConstraintsMaximizeSatisfiedCount) {
  // Two directly conflicting constraints plus one independent satisfiable
  // one; the sigmoid objective should satisfy the independent constraint
  // and exactly one of the conflicting pair.
  SgpProblem problem;
  problem.AddVariable(0.5, 0.01, 1.0);  // x0
  problem.AddVariable(0.2, 0.01, 1.0);  // x1
  problem.AddVariable(0.8, 0.01, 1.0);  // x2

  Signomial g1;  // x0 - x1 <= 0  (x1 >= x0)
  g1.AddTerm(Monomial(1.0, {{0, 1.0}}));
  g1.AddTerm(Monomial(-1.0, {{1, 1.0}}));
  problem.AddConstraint(g1, "c1");

  Signomial g2;  // x1 - x0 <= 0  (x0 >= x1): conflicts with c1 strictly?
  g2.AddTerm(Monomial(1.0, {{1, 1.0}}));
  g2.AddTerm(Monomial(-1.0, {{0, 1.0}}));
  g2.AddTerm(Monomial(0.05));  // margin makes the pair jointly infeasible
  problem.AddConstraint(g2, "c2");

  Signomial g3;  // x2 - 0.9 <= 0, trivially satisfiable
  g3.AddTerm(Monomial(1.0, {{2, 1.0}}));
  g3.AddTerm(Monomial(-0.9));
  problem.AddConstraint(g3, "c3");

  SgpSolverOptions options;
  options.formulation = SgpFormulation::kReducedSigmoid;
  SgpSolution solution = SgpSolver(options).Solve(problem);
  EXPECT_GE(solution.satisfied_constraints, 2);
  EXPECT_EQ(solution.total_constraints, 3);
}

TEST(SgpSolverTest, NoConstraintsKeepsInitialPoint) {
  SgpProblem problem;
  problem.AddVariable(0.42, 0.0, 1.0);
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kReducedSigmoid;
  SgpSolution solution = SgpSolver(options).Solve(problem);
  EXPECT_NEAR(solution.x[0], 0.42, 1e-9);
}

TEST(SgpSolverTest, InvalidProblemReturnsError) {
  SgpProblem problem;
  problem.AddVariable(0.5, 0.0, 1.0);
  problem.AddConstraint(Signomial(Monomial(1.0, {{9, 1.0}})), "bad");
  SgpSolution solution = SgpSolver().Solve(problem);
  EXPECT_FALSE(solution.status.ok());
  EXPECT_EQ(solution.x, problem.initial());
}

TEST(SgpSolverTest, SolutionStaysInsideBox) {
  SgpSolverOptions options;
  for (auto formulation :
       {SgpFormulation::kHardConstraints, SgpFormulation::kReducedSigmoid,
        SgpFormulation::kDeviationVariables}) {
    options.formulation = formulation;
    SgpSolution solution = SgpSolver(options).Solve(MakeSwapProblem());
    for (double v : solution.x) {
      EXPECT_GE(v, 0.01 - 1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

// Each value SgpSolverOptions keeps must reach the solve it configures.
TEST(SgpSolverTest, MaxOuterIterationsBoundsTheHardForm) {
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kHardConstraints;
  SgpSolution full = SgpSolver(options).Solve(MakeSwapProblem());
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();

  // One outer iteration at the initial penalty cannot reach the 1e-8
  // feasibility tolerance, so the solve stops early and says so.
  options.max_outer_iterations = 1;
  SgpSolution capped = SgpSolver(options).Solve(MakeSwapProblem());
  EXPECT_TRUE(capped.status.IsInfeasible()) << capped.status.ToString();
  EXPECT_FALSE(capped.converged);
  EXPECT_LT(capped.iterations, full.iterations);
}

TEST(SgpSolverTest, InnerMaxIterationsBoundsTheReducedForm) {
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kReducedSigmoid;
  SgpSolution full = SgpSolver(options).Solve(MakeSwapProblem());

  // One inner solve per continuation step, each capped.
  options.inner.max_iterations = 2;
  SgpSolution capped = SgpSolver(options).Solve(MakeSwapProblem());
  EXPECT_LE(capped.iterations, 2 * options.continuation_steps);
  EXPECT_GT(full.iterations, capped.iterations);
  EXPECT_TRUE(capped.status.IsNotConverged()) << capped.status.ToString();
}

TEST(SgpSolverTest, ValidateRejectsNonPositiveIterationCaps) {
  SgpSolverOptions options;
  options.max_outer_iterations = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.max_outer_iterations = 1;
  options.inner.max_iterations = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.inner.max_iterations = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SgpSolverTest, SetInitialMovesStartKeepsAnchor) {
  SgpProblem problem = MakeSwapProblem();
  std::vector<double> original = problem.initial();
  problem.SetInitial({0.9, 0.05});
  EXPECT_EQ(problem.initial(), (std::vector<double>{0.9, 0.05}));
  // The proximal anchor stays pinned to the original weights, so a solve
  // from the moved start still minimizes change against the real graph.
  EXPECT_EQ(problem.anchor(), original);
}

TEST(SgpSolverTest, SetInitialProjectsIntoBox) {
  SgpProblem problem = MakeSwapProblem();
  problem.SetInitial({-1.0, 2.0});
  EXPECT_EQ(problem.initial(), (std::vector<double>{0.01, 1.0}));
}

// Guardrail tests: each formulation must honor a wall budget, returning
// DeadlineExceeded with a finite in-box point, well within 2x the budget.
TEST(SgpSolverTest, DeadlineExceededReturnsPromptlyAllFormulations) {
  // Stall each continuation step so the soft formulations cannot finish all
  // 50 steps inside the budget (their penalty objectives would otherwise
  // converge instantly even on conflicting constraints).
  ScopedFault stall(FaultSite::kSlowSolve,
                    {.probability = 1.0, .sleep_seconds = 2e-3});
  for (auto formulation :
       {SgpFormulation::kReducedSigmoid, SgpFormulation::kDeviationVariables,
        SgpFormulation::kHardConstraints}) {
    // A conflicting-constraint problem the solver cannot finish instantly,
    // with convergence tolerances disabled so iterations never run out.
    SgpProblem problem;
    problem.AddVariable(0.5, 0.01, 1.0);
    problem.AddVariable(0.2, 0.01, 1.0);
    Signomial g1;
    g1.AddTerm(Monomial(1.0, {{0, 1.0}}));
    g1.AddTerm(Monomial(-1.0, {{1, 1.0}}));
    g1.AddTerm(Monomial(0.05));
    problem.AddConstraint(g1, "c1");
    Signomial g2;
    g2.AddTerm(Monomial(1.0, {{1, 1.0}}));
    g2.AddTerm(Monomial(-1.0, {{0, 1.0}}));
    g2.AddTerm(Monomial(0.05));
    problem.AddConstraint(g2, "c2");

    SgpSolverOptions options;
    options.formulation = formulation;
    options.deadline_seconds = 0.01;
    options.continuation_steps = 50;
    options.inner.max_iterations = 10000000;
    options.inner.gradient_tolerance = 0.0;
    options.inner.value_tolerance = 0.0;
    options.max_outer_iterations = 10000;

    Timer timer;
    SgpSolution solution = SgpSolver(options).Solve(problem);
    double elapsed = timer.ElapsedSeconds();
    EXPECT_TRUE(solution.status.IsDeadlineExceeded())
        << static_cast<int>(formulation) << ": "
        << solution.status.ToString();
    EXPECT_LT(elapsed, 2.0 * options.deadline_seconds)
        << static_cast<int>(formulation);
    ASSERT_EQ(solution.x.size(), 2u);
    for (double v : solution.x) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.01 - 1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(SgpSolverTest, InjectedNanGradientNeverEscapes) {
  // Poison every gradient evaluation: the solution point must still come
  // back finite and in-box, with a NumericalError (or error) status.
  ScopedFault fault(FaultSite::kNanGradient, {.probability = 1.0});
  SgpSolverOptions options;
  options.formulation = SgpFormulation::kReducedSigmoid;
  SgpSolution solution = SgpSolver(options).Solve(MakeSwapProblem());
  EXPECT_FALSE(solution.status.ok());
  ASSERT_EQ(solution.x.size(), 2u);
  for (double v : solution.x) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.01 - 1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(SgpSolverTest, InjectedNonConvergenceReturnsInitialPoint) {
  ScopedFault fault(FaultSite::kSolveNonConvergence, {.probability = 1.0});
  SgpProblem problem = MakeSwapProblem();
  SgpSolution solution = SgpSolver().Solve(problem);
  EXPECT_TRUE(solution.status.IsNotConverged());
  EXPECT_FALSE(solution.converged);
  EXPECT_EQ(solution.x, problem.initial());
  for (double v : solution.x) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace kgov::math
