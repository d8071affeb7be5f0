// Graph-optimization scoring (paper Definition 3 and Eq. 21).
//
// Omega(G*) = sum over votes of (rank_t - rank'_t), where rank_t is the
// best answer's position in the list the original graph produced (recorded
// in the vote itself) and rank'_t is its position after re-ranking the same
// answer list with the optimized graph. Omega_avg divides by the vote
// count.

#ifndef KGOV_CORE_SCORING_H_
#define KGOV_CORE_SCORING_H_

#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/eipd_engine.h"
#include "votes/vote.h"

namespace kgov::core {

struct OmegaResult {
  /// Omega(G*): total rank improvement (positive = better).
  double total = 0.0;
  /// Omega_avg = total / #votes (Eq. 21); 0 when there are no votes.
  double average = 0.0;
  /// 1-based rank of each vote's best answer before/after, vote order.
  std::vector<int> before_ranks;
  std::vector<int> after_ranks;
};

/// Re-ranks each vote's recorded answer list under `view` (a frozen view
/// of the optimized graph, e.g. a graph::CsrSnapshot of it) and scores the
/// improvement of the voted best answers. One propagation per vote, shared
/// workspace, no per-vote allocation.
OmegaResult EvaluateOmega(graph::GraphView view,
                          const std::vector<votes::Vote>& votes,
                          const ppr::EipdOptions& eipd = {});

}  // namespace kgov::core

#endif  // KGOV_CORE_SCORING_H_
