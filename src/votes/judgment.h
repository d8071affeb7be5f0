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
// S(vq, a_{rank-1}), the vote is discarded before SGP encoding.

#ifndef KGOV_VOTES_JUDGMENT_H_
#define KGOV_VOTES_JUDGMENT_H_

#include <memory>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "ppr/eipd_engine.h"
#include "ppr/symbolic_eipd.h"
#include "votes/vote.h"

namespace kgov::votes {

struct JudgmentOptions {
  ppr::SymbolicEipdOptions symbolic;
  /// Which edges the optimizer may change; fixed edges keep their weight in
  /// the extreme condition (null = all edges changeable).
  ppr::SymbolicEipd::VariablePredicate is_variable;

  /// Checks this struct and the nested SymbolicEipdOptions.
  Status Validate() const;
};

class JudgmentFilter {
 public:
  /// `graph` is borrowed and must outlive the filter; its weights are
  /// frozen into a CSR snapshot at construction (the filter evaluates the
  /// extreme condition on the unified EipdEngine), so construct the filter
  /// after the batch's graph state is final.
  JudgmentFilter(const graph::WeightedDigraph* graph,
                 JudgmentOptions options);

  /// True when the vote can in principle be satisfied (positive votes are
  /// trivially satisfiable; negative votes run the extreme-condition test).
  bool IsSatisfiable(const Vote& vote) const;

  /// Filters `votes`, keeping satisfiable ones (order preserved).
  std::vector<Vote> FilterVotes(const std::vector<Vote>& votes) const;

 private:
  const graph::WeightedDigraph* graph_;
  JudgmentOptions options_;
  // Frozen view of `graph_` for the numeric extreme-condition evaluation;
  // declared before engine_ so the view it backs outlives the engine.
  std::shared_ptr<const graph::CsrSnapshot> snapshot_;
  ppr::EipdEngine engine_;
};

}  // namespace kgov::votes

#endif  // KGOV_VOTES_JUDGMENT_H_
