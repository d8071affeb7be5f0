#include "votes/vote_encoder.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "math/signomial.h"

namespace kgov::votes {


VoteEncoder::VoteEncoder(const graph::WeightedDigraph* graph,
                         EncoderOptions options)
    : graph_(graph), options_(std::move(options)) {
  KGOV_CHECK(graph_ != nullptr);
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

Result<EncodedProgram> VoteEncoder::EncodeBatch(
    const std::vector<Vote>& votes) const {
  EncodedProgram program;
  ppr::SymbolicEipd symbolic(
      graph_,
      [this](const graph::WeightedDigraph& g, graph::EdgeId e) {
        return IsVariableEdge(options_, g, e);
      },
      options_.symbolic);

  struct PendingConstraint {
    math::Signomial g;
    std::string label;
    double weight = 1.0;
  };
  std::vector<PendingConstraint> pending;

  for (const Vote& vote : votes) {
    if (!vote.IsWellFormed()) {
      KGOV_LOG(DEBUG) << "skipping malformed vote " << vote.id;
      continue;
    }
    std::vector<ppr::SymbolicAnswer> answers =
        symbolic.Collect(vote.query, vote.answer_list, &program.variables);

    // The reference answer: user's pick for negative votes, the confirmed
    // top answer for positive votes (they coincide for positive votes).
    int best_idx = vote.BestAnswerRank() - 1;
    KGOV_DCHECK(best_idx >= 0);
    const math::Signomial& best_similarity = answers[best_idx].similarity;

    for (size_t i = 0; i < answers.size(); ++i) {
      if (static_cast<int>(i) == best_idx) continue;
      // g = S(vq, a_i) - S(vq, a*) ; require g < 0 (Eq. 11 / Eq. 13).
      math::Signomial g =
          math::Signomial::Difference(answers[i].similarity, best_similarity);
      std::string label = "vote" + std::to_string(vote.id) + ":a" +
                          std::to_string(vote.answer_list[i]) + "<a" +
                          std::to_string(vote.best_answer);
      pending.push_back(
          PendingConstraint{std::move(g), std::move(label), vote.weight});
    }
    program.encoded_vote_ids.push_back(vote.id);
  }

  if (program.encoded_vote_ids.empty()) {
    return Status::InvalidArgument("no well-formed votes to encode");
  }

  // Declare variables (initialized from the current graph weights,
  // Alg. 1 lines 5-8), then attach the constraints.
  for (graph::EdgeId edge : program.variables.variables()) {
    double w = graph_->Weight(edge);
    double lo = options_.weight_lower_bound;
    double hi = options_.weight_upper_bound;
    // Keep the initial point inside the box even if the current weight
    // strays outside (e.g. a zero-weight edge).
    double initial = std::min(std::max(w, lo), hi);
    program.problem.AddVariable(initial, lo, hi);
  }
  for (PendingConstraint& constraint : pending) {
    program.problem.AddConstraint(std::move(constraint.g),
                                  std::move(constraint.label),
                                  constraint.weight);
  }
  return program;
}

}  // namespace kgov::votes
