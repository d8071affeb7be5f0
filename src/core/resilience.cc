#include "core/resilience.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace kgov::core {

Status RetryOptions::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument(
        "RetryOptions.max_attempts must be >= 1, got " +
        std::to_string(max_attempts));
  }
  return Status::OK();
}

Status GraphValidatorOptions::Validate() const {
  if (!std::isfinite(weight_lower_bound) ||
      !std::isfinite(weight_upper_bound)) {
    return Status::InvalidArgument(
        "GraphValidatorOptions weight bounds must be finite, got [" +
        std::to_string(weight_lower_bound) + ", " +
        std::to_string(weight_upper_bound) + "]");
  }
  if (!(weight_lower_bound <= weight_upper_bound)) {
    return Status::InvalidArgument(
        "GraphValidatorOptions.weight_lower_bound must be <= "
        "weight_upper_bound, got [" + std::to_string(weight_lower_bound) +
        ", " + std::to_string(weight_upper_bound) + "]");
  }
  if (!(tolerance >= 0.0) || !std::isfinite(tolerance)) {
    return Status::InvalidArgument(
        "GraphValidatorOptions.tolerance must be finite and >= 0, got " +
        std::to_string(tolerance));
  }
  return Status::OK();
}

namespace {

// Formulations tried after the base formulation fails, in order. The
// deviation form is not among them: its optimum is the reduced form's, so
// it cannot rescue a failed reduced solve, and it needs about 100x the
// reduced form's iterations to reach it.
constexpr math::SgpFormulation kFallbackChain[] = {
    math::SgpFormulation::kReducedSigmoid,
    math::SgpFormulation::kHardConstraints};

// Restart perturbation of retry k > 0, as a fraction of each variable's
// box width: initial + kRestartJitter * U(-1, 1) * width.
constexpr double kRestartJitter = 0.05;

// Seed of the deterministic jitter stream.
constexpr uint64_t kJitterSeed = 0x51F0'D2B4'9C3E'A871ull;

// Retryable failures: transient (a different start point or formulation can
// succeed). InvalidArgument/Internal are structural and retried never.
bool IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotConverged:
    case StatusCode::kInfeasible:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kNumericalError:
      return true;
    default:
      return false;
  }
}

// True when `a` is a strictly better solve outcome than `b`.
bool BetterThan(const math::SgpSolution& a, const math::SgpSolution& b) {
  if (a.status.ok() != b.status.ok()) return a.status.ok();
  if (a.satisfied_constraints != b.satisfied_constraints) {
    return a.satisfied_constraints > b.satisfied_constraints;
  }
  return a.objective < b.objective;
}

// Telemetry for the retry/fallback chain; pointers resolved once.
struct ResilienceMetrics {
  telemetry::Counter* solves;
  telemetry::Counter* attempts;
  telemetry::Counter* retries;
  telemetry::Counter* fallback_switches;
  telemetry::Counter* deadline_hits;
  telemetry::Counter* recovered;
  telemetry::Counter* exhausted;
  telemetry::Histogram* attempt_span;

  static const ResilienceMetrics& Get() {
    static const ResilienceMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return ResilienceMetrics{
          reg.GetCounter("resilience.solves"),
          reg.GetCounter("resilience.attempts"),
          reg.GetCounter("resilience.retries"),
          reg.GetCounter("resilience.fallback_switches"),
          reg.GetCounter("resilience.deadline_hits"),
          reg.GetCounter("resilience.recovered"),
          reg.GetCounter("resilience.exhausted"),
          reg.GetHistogram("span.resilience.attempt.seconds")};
    }();
    return m;
  }
};

}  // namespace

ResilientSolveOutcome ResilientSgpSolver::Solve(
    const math::SgpProblem& problem, uint64_t seed_salt) const {
  const ResilienceMetrics& metrics = ResilienceMetrics::Get();
  metrics.solves->Increment();
  ResilientSolveOutcome outcome;
  Status retry_valid = retry_.Validate();
  if (!retry_valid.ok()) {
    outcome.solution.status = retry_valid;
    outcome.exhausted = true;
    return outcome;
  }
  const int max_attempts = std::max(1, retry_.max_attempts);

  // Effective fallback chain: base formulation first, then the fixed
  // chain minus duplicates of the base.
  std::vector<math::SgpFormulation> chain = {base_.formulation};
  for (math::SgpFormulation f : kFallbackChain) {
    if (f != base_.formulation) chain.push_back(f);
  }

  Rng jitter_rng(kJitterSeed ^ (seed_salt * 0x9E3779B97F4A7C15ull));

  bool have_best = false;
  math::SgpSolution best;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    math::SgpSolverOptions options = base_;
    options.formulation =
        chain[std::min<size_t>(attempt, chain.size() - 1)];

    // Restart point: the original initial values on attempt 0, a jittered
    // perturbation afterwards. The anchor (proximal target) stays pinned
    // to the original weights either way.
    math::SgpProblem restarted;  // only used on retries
    const math::SgpProblem* to_solve = &problem;
    if (attempt > 0) {
      restarted = problem;
      std::vector<double> x0 = problem.initial();
      const math::BoxBounds& bounds = problem.bounds();
      for (size_t i = 0; i < x0.size(); ++i) {
        double width = 1.0;
        if (i < bounds.lower.size() && i < bounds.upper.size()) {
          width = bounds.upper[i] - bounds.lower[i];
        }
        x0[i] += kRestartJitter * jitter_rng.Uniform(-1.0, 1.0) * width;
      }
      restarted.SetInitial(std::move(x0));
      to_solve = &restarted;
    }

    Timer timer;
    math::SgpSolution solution = math::SgpSolver(options).Solve(*to_solve);
    SolveAttempt record;
    record.attempt = attempt;
    record.formulation = options.formulation;
    record.status = solution.status;
    record.seconds = timer.ElapsedSeconds();
    outcome.attempts.push_back(record);

    metrics.attempts->Increment();
    metrics.attempt_span->Observe(record.seconds);
    if (attempt > 0) metrics.retries->Increment();
    if (options.formulation != base_.formulation) {
      metrics.fallback_switches->Increment();
    }
    if (solution.status.IsDeadlineExceeded()) {
      metrics.deadline_hits->Increment();
    }

    if (!have_best || BetterThan(solution, best)) {
      best = solution;
      have_best = true;
    }
    if (solution.status.ok()) {
      if (attempt > 0) metrics.recovered->Increment();
      outcome.solution = std::move(solution);
      return outcome;
    }
    if (!IsRetryable(solution.status)) {
      // Structural failure: retrying cannot help.
      metrics.exhausted->Increment();
      outcome.solution = std::move(solution);
      outcome.exhausted = true;
      return outcome;
    }
    KGOV_LOG(DEBUG) << "SGP attempt " << attempt
                    << " failed: " << solution.status
                    << "; retrying with fallback";
  }

  outcome.exhausted = true;
  metrics.exhausted->Increment();
  outcome.solution = std::move(best);
  return outcome;
}

Status ValidateGraphUpdate(const graph::WeightedDigraph& before,
                           const graph::WeightedDigraph& after,
                           const GraphValidatorOptions& options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  if (after.NumNodes() != before.NumNodes()) {
    return Status::FailedPrecondition(
        "node count drift: " + std::to_string(before.NumNodes()) + " -> " +
        std::to_string(after.NumNodes()));
  }
  if (after.NumEdges() != before.NumEdges()) {
    return Status::FailedPrecondition(
        "edge count drift: " + std::to_string(before.NumEdges()) + " -> " +
        std::to_string(after.NumEdges()));
  }
  for (graph::EdgeId e = 0; e < before.NumEdges(); ++e) {
    const graph::Edge& eb = before.edge(e);
    const graph::Edge& ea = after.edge(e);
    if (eb.from != ea.from || eb.to != ea.to) {
      return Status::FailedPrecondition("edge " + std::to_string(e) +
                                        " endpoints drifted");
    }
  }
  const double lo = options.weight_lower_bound - options.tolerance;
  const double hi = options.weight_upper_bound + options.tolerance;
  for (graph::EdgeId e = 0; e < after.NumEdges(); ++e) {
    double w = after.Weight(e);
    if (!std::isfinite(w)) {
      return Status::FailedPrecondition("edge " + std::to_string(e) +
                                        " has non-finite weight");
    }
    if (w < lo || w > hi) {
      return Status::FailedPrecondition(
          "edge " + std::to_string(e) + " weight " + std::to_string(w) +
          " outside [" + std::to_string(options.weight_lower_bound) + ", " +
          std::to_string(options.weight_upper_bound) + "]");
    }
  }
  if (!after.IsSubStochastic(options.tolerance)) {
    return Status::FailedPrecondition(
        "out-weight normalization violated: a node's out-weights sum to "
        "more than 1");
  }
  return Status::OK();
}

}  // namespace kgov::core
