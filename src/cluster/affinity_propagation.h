// Affinity propagation clustering (Frey & Dueck, Science 2007), used by the
// split-and-merge strategy (paper SVI-A) to partition the vote set. AP
// selects the number of clusters automatically; the paper sets the shared
// preference to the median of the vote similarities.

#ifndef KGOV_CLUSTER_AFFINITY_PROPAGATION_H_
#define KGOV_CLUSTER_AFFINITY_PROPAGATION_H_

#include <cmath>
#include <vector>

#include "common/status.h"

namespace kgov::cluster {

/// Message passing runs with damping 0.8 for at most 400 iterations and
/// stops once the exemplar set is unchanged for 30 in a row.
struct ApOptions {
  /// Diagonal self-similarity (exemplar preference). NaN = use the median
  /// of the off-diagonal similarities (the paper's choice, SVII-D).
  double preference = std::nan("");

  /// Rejects an infinite preference (NaN is the documented default).
  /// AffinityPropagation fails fast with the result.
  Status Validate() const;
};

/// Result of a clustering run.
struct ApResult {
  /// labels[i] in [0, num_clusters): cluster of item i.
  std::vector<int> labels;
  /// exemplars[c]: the representative item of cluster c.
  std::vector<size_t> exemplars;
  int iterations = 0;
  bool converged = false;
};

/// Clusters items given a dense symmetric similarity matrix (higher =
/// more similar). Fails on empty or non-square input. Always returns at
/// least one cluster.
Result<ApResult> AffinityPropagation(
    const std::vector<std::vector<double>>& similarity,
    const ApOptions& options = {});

}  // namespace kgov::cluster

#endif  // KGOV_CLUSTER_AFFINITY_PROPAGATION_H_
