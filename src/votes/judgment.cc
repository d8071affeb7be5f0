#include "votes/judgment.h"

#include <algorithm>

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
    : graph_(graph), view_(view), options_(std::move(options)) {
  KGOV_CHECK(graph_ != nullptr);
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

bool JudgmentFilter::IsSatisfiable(const Vote& vote) const {
  return !FilterVotes({vote}).empty();
}

bool JudgmentFilter::Judge(const Vote& vote, const ppr::EipdAdjoint& adjoint,
                           std::vector<int32_t>* var_of_edge) const {
  // A vote naming nodes the graph does not have is not satisfiable, and
  // could not be encoded either.
  if (!vote.IsWellFormed() || !FitsView(vote, view_)) return false;
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
  // Each reassigned edge becomes a variable whose trial value is its
  // extreme weight.
  auto changeable = [this](graph::EdgeId e) {
    return !options_.is_variable || options_.is_variable(*graph_, e);
  };
  std::vector<double> x;
  auto reassign = [&](graph::EdgeId e, double weight) {
    (*var_of_edge)[e] = static_cast<int32_t>(x.size());
    x.push_back(weight);
  };
  for (graph::EdgeId e : best_edges) {
    if (!changeable(e)) continue;
    reassign(e, Contains(rival_edges, e) ? kSharedEdgeWeight : 1.0);
  }
  for (graph::EdgeId e : rival_edges) {
    if (changeable(e) && !Contains(best_edges, e)) reassign(e, 0.0);
  }

  adjoint.Forward(vote.query, x.data(), &ws);
  const bool satisfiable = ws.lane.phi[best] > ws.lane.phi[rival];
  for (graph::EdgeId e : best_edges) (*var_of_edge)[e] = -1;
  for (graph::EdgeId e : rival_edges) (*var_of_edge)[e] = -1;
  return satisfiable;
}

std::vector<Vote> JudgmentFilter::FilterVotes(
    const std::vector<Vote>& votes) const {
  // One adjoint, targeting every answer of the batch, serves every vote;
  // its variable index holds one vote's reassigned edges at a time.
  std::vector<int32_t> var_of_edge(view_.NumEdges(), -1);
  const ppr::EipdAdjoint adjoint(view_, options_.eipd, var_of_edge.data(),
                                 FittingAnswers(votes, view_));
  std::vector<Vote> kept;
  kept.reserve(votes.size());
  for (const Vote& vote : votes) {
    if (Judge(vote, adjoint, &var_of_edge)) {
      kept.push_back(vote);
    } else {
      KGOV_LOG(DEBUG) << "judgment filter discarded vote " << vote.id;
    }
  }
  return kept;
}

}  // namespace kgov::votes
