#include "ppr/eipd_engine.h"

#include <cmath>
#include <string>

#include "common/timer.h"
#include "telemetry/metrics.h"

namespace kgov::ppr {

Status EipdOptions::Validate() const {
  if (max_length < 1) {
    return Status::InvalidArgument(
        "EipdOptions.max_length must be >= 1, got " +
        std::to_string(max_length));
  }
  if (!(restart > 0.0 && restart < 1.0)) {
    return Status::InvalidArgument(
        "EipdOptions.restart must be in (0, 1), got " +
        std::to_string(restart));
  }
  return Status::OK();
}

PropagationWorkspace& ThreadLocalWorkspace() {
  static thread_local PropagationWorkspace ws;
  return ws;
}

EipdEngine::EipdEngine(graph::GraphView view, EipdOptions options)
    : view_(view), options_(options) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

Status EipdEngine::ValidateSeed(const QuerySeed& seed) const {
  for (size_t i = 0; i < seed.links.size(); ++i) {
    const auto& [node, weight] = seed.links[i];
    if (!view_.IsValidNode(node)) {
      return Status::InvalidArgument(
          "seed link " + std::to_string(i) + " names node " +
          std::to_string(node) + ", outside the view's " +
          std::to_string(view_.NumNodes()) + " nodes");
    }
    if (!std::isfinite(weight) || weight < 0.0) {
      return Status::InvalidArgument(
          "seed link " + std::to_string(i) + " (node " +
          std::to_string(node) + ") has non-finite or negative weight " +
          std::to_string(weight));
    }
  }
  return Status::OK();
}

const std::vector<double>& EipdEngine::PropagateInto(
    const QuerySeed& seed, PropagationWorkspace* ws) const {
  // Serving-latency telemetry: one Timer (two steady-clock reads) and one
  // histogram Observe per pass -- a fraction of a percent of a single
  // propagation on the bench graph.
  static telemetry::Histogram* const latency =
      telemetry::MetricRegistry::Global().GetHistogram(
          "serving.eipd.propagate.seconds");
  static telemetry::Counter* const queries =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.queries");
  // Counts every propagation. The name predates the one kernel; kgbench
  // reads it for ppr.kernel_sparse_ratio.
  static telemetry::Counter* const propagations =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.kernel.sparse");
  if (ws == nullptr) ws = &ThreadLocalWorkspace();
  Timer timer;
  internal::PropagatePhi(internal::ViewAdjacency{view_}, seed, options_, ws);
  propagations->Increment();
  queries->Increment();
  latency->Observe(timer.ElapsedSeconds());
  return ws->phi;
}

StatusOr<std::vector<double>> EipdEngine::Propagate(
    const QuerySeed& seed, PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  return PropagateInto(seed, ws);
}

StatusOr<std::vector<double>> EipdEngine::Scores(
    const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
    PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  const std::vector<double>& phi = PropagateInto(seed, ws);
  std::vector<double> out(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!view_.IsValidNode(answers[i])) {
      return Status::InvalidArgument(
          "answers[" + std::to_string(i) + "] = " +
          std::to_string(answers[i]) + " is outside the view's " +
          std::to_string(view_.NumNodes()) + " nodes");
    }
    out[i] = phi[answers[i]];
  }
  return out;
}

StatusOr<std::vector<ScoredAnswer>> EipdEngine::Rank(
    const QuerySeed& seed, const std::vector<graph::NodeId>& candidates,
    size_t k, PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  return TopKByScore(PropagateInto(seed, ws), candidates, k);
}

}  // namespace kgov::ppr
