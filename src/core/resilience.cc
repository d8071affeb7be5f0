#include "core/resilience.h"

#include <cmath>
#include <string>

namespace kgov::core {

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
