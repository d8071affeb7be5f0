// Judgment filter for erroneous votes (paper SV).
//
// A negative vote is unsatisfiable when no assignment of edge weights can
// rank its best answer above the competitor directly above it. The paper
// tests an *extreme condition*: collect the edge sets of all (<= L)-length
// walks to the best answer a* and to the answer ranked immediately above
// it, then evaluate the two similarities with
//   - shared edges set to the constant 0.5 (any value in (0, 1) works; the
//     paper leaves it unspecified),
//   - edges exclusive to a*'s walks set to 1,
//   - edges exclusive to the competitor's walks set to 0.
// If even under this maximally favourable weighting S(vq, a*) cannot exceed
// S(vq, a_{rank-1}), the vote is discarded before SGP encoding. The two
// edge sets (the paper's Set(v_a)) are the support of one forward and two
// backward propagations (ppr::EipdAdjoint::SupportEdges), whose last hop
// walks only the edges into the votes' answers. The extreme weights reach
// the kernel the way every trial point does: as the adjoint's variables,
// one per reassigned edge, read by one more forward propagation.

#ifndef KGOV_VOTES_JUDGMENT_H_
#define KGOV_VOTES_JUDGMENT_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/edge_vars.h"
#include "ppr/eipd_adjoint.h"
#include "votes/vote.h"

namespace kgov::votes {

struct JudgmentOptions {
  ppr::EipdOptions eipd;
  /// Which edges the optimizer may change; fixed edges keep their weight in
  /// the extreme condition (null = all edges changeable).
  ppr::EdgePredicate is_variable;

  /// Checks the nested EipdOptions.
  Status Validate() const;
};

class JudgmentFilter {
 public:
  /// `view` shows `graph`'s current weights (a CsrSnapshot the caller
  /// shares with its other stages). Both are borrowed and must outlive the
  /// filter; build it after the batch's graph state is final.
  JudgmentFilter(const graph::WeightedDigraph* graph, graph::GraphView view,
                 JudgmentOptions options);

  /// True when the vote can in principle be satisfied (positive votes are
  /// trivially satisfiable; negative votes run the extreme-condition test).
  /// Votes naming nodes outside the view never are.
  bool IsSatisfiable(const Vote& vote) const;

  /// Filters `votes`, keeping satisfiable ones (order preserved).
  std::vector<Vote> FilterVotes(const std::vector<Vote>& votes) const;

 private:
  /// IsSatisfiable, walking the edge sets with `adjoint`, whose targets
  /// must include the vote's answers. `var_of_edge` is the adjoint's
  /// variable index: all -1 on entry and on return; the vote's reassigned
  /// edges are its variables only while their extreme Phi is evaluated.
  bool Judge(const Vote& vote, const ppr::EipdAdjoint& adjoint,
             std::vector<int32_t>* var_of_edge) const;

  const graph::WeightedDigraph* graph_;
  graph::GraphView view_;
  JudgmentOptions options_;
};

}  // namespace kgov::votes

#endif  // KGOV_VOTES_JUDGMENT_H_
