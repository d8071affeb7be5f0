#include "core/scoring.h"

#include "common/logging.h"
#include "ppr/eipd_engine.h"

namespace kgov::core {

OmegaResult EvaluateOmega(graph::GraphView view,
                          const std::vector<votes::Vote>& votes,
                          const ppr::EipdOptions& eipd) {
  OmegaResult result;
  ppr::EipdEngine engine(view, eipd);
  ppr::PropagationWorkspace workspace;
  for (const votes::Vote& vote : votes) {
    if (!vote.IsWellFormed()) continue;
    int before = vote.BestAnswerRank();
    StatusOr<std::vector<ppr::ScoredAnswer>> ranked = engine.Rank(
        vote.query, vote.answer_list, vote.answer_list.size(), &workspace);
    if (!ranked.ok()) continue;  // vote doesn't fit this view: skip it
    const std::vector<ppr::ScoredAnswer>& reranked = ranked.value();
    std::vector<graph::NodeId> order;
    order.reserve(reranked.size());
    for (const ppr::ScoredAnswer& sa : reranked) order.push_back(sa.node);
    int after = votes::RankOf(order, vote.best_answer);
    if (after == 0) after = static_cast<int>(order.size());  // defensive
    result.before_ranks.push_back(before);
    result.after_ranks.push_back(after);
    result.total += static_cast<double>(before - after);
  }
  if (!result.before_ranks.empty()) {
    result.average =
        result.total / static_cast<double>(result.before_ranks.size());
  }
  return result;
}

}  // namespace kgov::core
