// ValidateGraphUpdate: the invariant checks run on an optimized graph
// before it replaces the serving graph - finite weights, weights in
// bounds, out-weight sub-stochasticity, and no edge-set drift. A violation
// means the update must be rolled back (see OnlineKgOptimizer::Flush).
//
// A failed solve is not retried: it fails its multi-vote batch or
// quarantines its split-and-merge cluster (see KgOptimizer and
// docs/robustness.md), and the online optimizer re-queues those votes.

#ifndef KGOV_CORE_RESILIENCE_H_
#define KGOV_CORE_RESILIENCE_H_

#include "common/status.h"
#include "graph/graph.h"

namespace kgov::core {

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
