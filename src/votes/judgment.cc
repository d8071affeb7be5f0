#include "votes/judgment.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "votes/vote_program.h"

namespace kgov::votes {

Status JudgmentOptions::Validate() const { return eipd.Validate(); }

namespace {

// The extreme condition's weight for edges on both answers' walks.
constexpr double kSharedEdgeWeight = 0.5;

bool Contains(const std::vector<graph::EdgeId>& sorted, graph::EdgeId e) {
  return std::binary_search(sorted.begin(), sorted.end(), e);
}

}  // namespace

JudgmentFilter::JudgmentFilter(const graph::WeightedDigraph* graph,
                               graph::GraphView view, JudgmentOptions options)
    : graph_(graph),
      options_(std::move(options)),
      engine_(view, options_.eipd) {
  KGOV_CHECK(graph_ != nullptr);
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

bool JudgmentFilter::IsSatisfiable(const Vote& vote) const {
  return !FilterVotes({vote}).empty();
}

bool JudgmentFilter::Judge(const Vote& vote,
                           const ppr::EipdAdjoint& adjoint) const {
  // A vote naming nodes the graph does not have is not satisfiable, and
  // could not be encoded either.
  if (!vote.IsWellFormed() || !FitsView(vote, engine_.view())) return false;
  if (vote.IsPositive()) return true;

  int rank = vote.BestAnswerRank();  // 1-based; >= 2 for negative votes
  KGOV_DCHECK(rank >= 2);
  const graph::NodeId best = vote.best_answer;
  const graph::NodeId rival = vote.answer_list[rank - 2];  // ranked one above

  // Edge sets of contributing walks to each of the two answers.
  ppr::AdjointWorkspace& ws = ppr::ThreadLocalAdjointWorkspace();
  adjoint.Forward(vote.query, nullptr, &ws);
  const std::vector<graph::EdgeId> best_edges =
      adjoint.SupportEdges({&best, 1}, nullptr, &ws);
  const std::vector<graph::EdgeId> rival_edges =
      adjoint.SupportEdges({&rival, 1}, nullptr, &ws);

  // Extreme condition: favour a* maximally, the rival minimally. Only
  // optimizable edges are reassigned; fixed edges keep their weights.
  auto changeable = [this](graph::EdgeId e) {
    return !options_.is_variable || options_.is_variable(*graph_, e);
  };
  std::unordered_map<graph::EdgeId, double> overrides;
  overrides.reserve(best_edges.size() + rival_edges.size());
  for (graph::EdgeId e : best_edges) {
    if (!changeable(e)) continue;
    overrides[e] = Contains(rival_edges, e) ? kSharedEdgeWeight : 1.0;
  }
  for (graph::EdgeId e : rival_edges) {
    if (!changeable(e)) continue;
    if (!Contains(best_edges, e)) overrides[e] = 0.0;
  }

  StatusOr<std::vector<double>> scores = engine_.ScoresWithOverrides(
      vote.query, {best, rival}, overrides);
  if (!scores.ok()) return false;
  return scores.value()[0] > scores.value()[1];
}

std::vector<Vote> JudgmentFilter::FilterVotes(
    const std::vector<Vote>& votes) const {
  // One adjoint, targeting every answer of the batch, serves every vote.
  const ppr::EipdAdjoint adjoint(engine_.view(), options_.eipd, nullptr,
                                 FittingAnswers(votes, engine_.view()));
  std::vector<Vote> kept;
  kept.reserve(votes.size());
  for (const Vote& vote : votes) {
    if (Judge(vote, adjoint)) {
      kept.push_back(vote);
    } else {
      KGOV_LOG(DEBUG) << "judgment filter discarded vote " << vote.id;
    }
  }
  return kept;
}

}  // namespace kgov::votes
