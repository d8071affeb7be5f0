// Personalized PageRank (paper Eq. 1) by power iteration, and the
// linear-equation-group random-walk similarity of Yang et al. [5], which the
// paper uses as the similarity-evaluation baseline in Table VI.
//
// The iteration runs on graph::GraphView (CSR ranges): a caller holding a
// WeightedDigraph freezes one graph::CsrSnapshot and passes its view.

#ifndef KGOV_PPR_PPR_H_
#define KGOV_PPR_PPR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/query_seed.h"

namespace kgov::ppr {

struct PprOptions {
  /// Restart probability c (paper uses c ~ 0.15).
  double restart = 0.15;
  int max_iterations = 500;
  /// Stop when the L1 change between iterates drops below this.
  double tolerance = 1e-12;

  /// Checks every field range; returns InvalidArgument naming the first
  /// offending field. PowerIterationPpr fails fast with the result.
  Status Validate() const;
};

/// Solves pi = (1-c) M pi + c e_source by power iteration, where
/// M_ij = w(vj, vi) (column-sub-stochastic). Returns the full PPR vector.
/// The view's backing storage must stay alive for the duration of the call.
Result<std::vector<double>> PowerIterationPpr(graph::GraphView view,
                                              graph::NodeId source,
                                              const PprOptions& options = {});

/// PPR of a *virtual* query node whose out-edges are `seed`: the stationary
/// scores of walks whose first hop follows the seed links. Equals
/// (1-c) * sum_s seed(s) * PPR_s, and matches the extended inverse
/// P-distance of the same seed as L -> infinity (paper Theorem 1).
Result<std::vector<double>> PowerIterationPprFromSeed(
    graph::GraphView view, const QuerySeed& seed,
    const PprOptions& options = {});

/// The random-walk baseline of [5]: evaluates the similarity of ONE
/// (query, answer) pair by solving the linear equation group and reading
/// the answer entry. Per-pair cost is a full system solve, which is what
/// makes the baseline's total cost linear in the number of answers
/// (Table VI).
class RandomWalkBaseline {
 public:
  /// Serves from `view`; its backing storage must outlive the baseline.
  explicit RandomWalkBaseline(graph::GraphView view, PprOptions options = {});

  /// Compatibility: freezes a CSR snapshot of `graph` at construction
  /// (owned by the baseline) and serves from it.
  explicit RandomWalkBaseline(const graph::WeightedDigraph* graph,
                              PprOptions options = {});

  /// Similarity of one pair; re-solves the system each call (baseline
  /// behaviour under measurement).
  Result<double> Similarity(const QuerySeed& seed,
                            graph::NodeId answer) const;

 private:
  std::shared_ptr<const graph::CsrSnapshot> owned_snapshot_;
  graph::GraphView view_;
  PprOptions options_;
};

}  // namespace kgov::ppr

#endif  // KGOV_PPR_PPR_H_
