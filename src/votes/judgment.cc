#include "votes/judgment.h"

#include <unordered_map>

#include "common/logging.h"

namespace kgov::votes {

Status JudgmentOptions::Validate() const {
  return symbolic.Validate();
}

namespace {

// The extreme condition's weight for edges on both answers' walks.
constexpr double kSharedEdgeWeight = 0.5;

std::shared_ptr<const graph::CsrSnapshot> SnapshotOf(
    const graph::WeightedDigraph* graph) {
  KGOV_CHECK(graph != nullptr);
  return std::make_shared<graph::CsrSnapshot>(*graph);
}

}  // namespace

JudgmentFilter::JudgmentFilter(const graph::WeightedDigraph* graph,
                               JudgmentOptions options)
    : graph_(graph),
      options_(std::move(options)),
      snapshot_(SnapshotOf(graph)),
      engine_(snapshot_->View(), options_.symbolic.eipd) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

bool JudgmentFilter::IsSatisfiable(const Vote& vote) const {
  if (!vote.IsWellFormed()) return false;
  if (vote.IsPositive()) return true;

  int rank = vote.BestAnswerRank();  // 1-based; >= 2 for negative votes
  KGOV_DCHECK(rank >= 2);
  graph::NodeId best = vote.best_answer;
  graph::NodeId rival = vote.answer_list[rank - 2];  // ranked one above

  // Edge sets of contributing walks to each of the two answers.
  ppr::SymbolicEipd symbolic(graph_, options_.is_variable, options_.symbolic);
  ppr::EdgeVariableMap scratch;
  std::vector<ppr::SymbolicAnswer> answers =
      symbolic.Collect(vote.query, {best, rival}, &scratch);
  const auto& best_edges = answers[0].path_edges;
  const auto& rival_edges = answers[1].path_edges;

  // Extreme condition: favour a* maximally, the rival minimally. Only
  // optimizable edges are reassigned; fixed edges keep their weights.
  auto changeable = [this](graph::EdgeId e) {
    return !options_.is_variable || options_.is_variable(*graph_, e);
  };
  std::unordered_map<graph::EdgeId, double> overrides;
  overrides.reserve(best_edges.size() + rival_edges.size());
  for (graph::EdgeId e : best_edges) {
    if (!changeable(e)) continue;
    overrides[e] = rival_edges.count(e) > 0 ? kSharedEdgeWeight : 1.0;
  }
  for (graph::EdgeId e : rival_edges) {
    if (!changeable(e)) continue;
    if (best_edges.count(e) == 0) overrides[e] = 0.0;
  }

  StatusOr<std::vector<double>> scores = engine_.ScoresWithOverrides(
      vote.query, {best, rival}, overrides);
  // A query the graph cannot even link is certainly not satisfiable.
  if (!scores.ok()) return false;
  return scores.value()[0] > scores.value()[1];
}

std::vector<Vote> JudgmentFilter::FilterVotes(
    const std::vector<Vote>& votes) const {
  std::vector<Vote> kept;
  kept.reserve(votes.size());
  for (const Vote& vote : votes) {
    if (IsSatisfiable(vote)) {
      kept.push_back(vote);
    } else {
      KGOV_LOG(DEBUG) << "judgment filter discarded vote " << vote.id;
    }
  }
  return kept;
}

}  // namespace kgov::votes
