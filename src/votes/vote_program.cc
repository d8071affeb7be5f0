#include "votes/vote_program.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"

namespace kgov::votes {

bool FitsView(const Vote& vote, const graph::GraphView& view) {
  for (const auto& [node, weight] : vote.query.links) {
    if (!view.IsValidNode(node) || !std::isfinite(weight) || weight < 0.0) {
      return false;
    }
  }
  return std::all_of(vote.answer_list.begin(), vote.answer_list.end(),
                     [&view](graph::NodeId a) { return view.IsValidNode(a); });
}

std::vector<graph::NodeId> FittingAnswers(const std::vector<Vote>& votes,
                                          const graph::GraphView& view) {
  std::vector<graph::NodeId> answers;
  for (const Vote& vote : votes) {
    if (!vote.IsWellFormed() || !FitsView(vote, view)) continue;
    answers.insert(answers.end(), vote.answer_list.begin(),
                   vote.answer_list.end());
  }
  return answers;
}

Status EncoderOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(symbolic.Validate());
  if (!(weight_lower_bound > 0.0) || !std::isfinite(weight_lower_bound)) {
    return Status::InvalidArgument(
        "EncoderOptions.weight_lower_bound must be finite and > 0 "
        "(paper Eq. 2: 0 < xl), got " +
        std::to_string(weight_lower_bound));
  }
  if (!(weight_upper_bound >= weight_lower_bound) ||
      !std::isfinite(weight_upper_bound)) {
    return Status::InvalidArgument(
        "EncoderOptions.weight_upper_bound must be finite and >= "
        "weight_lower_bound, got " + std::to_string(weight_upper_bound));
  }
  return Status::OK();
}

namespace {

// Every answer the terms list (with repeats): the nodes whose Phi a
// VoteProgram reads, and so its adjoint's target set.
std::vector<graph::NodeId> AnswersOf(
    const std::vector<VoteProgram::Term>& terms) {
  std::vector<graph::NodeId> answers;
  for (const VoteProgram::Term& term : terms) {
    answers.insert(answers.end(), term.answers.begin(), term.answers.end());
  }
  return answers;
}

}  // namespace

bool IsVariableEdge(const EncoderOptions& options,
                    const graph::WeightedDigraph& graph, graph::EdgeId e) {
  if (graph.OutDegree(graph.edge(e).from) <= 1) return false;
  return !options.is_variable || options.is_variable(graph, e);
}

VoteProgram::VoteProgram(graph::GraphView view, const ppr::EipdOptions& eipd,
                         std::vector<Term> terms,
                         std::vector<int32_t> var_of_edge,
                         size_t num_variables)
    : terms_(std::move(terms)),
      var_of_edge_(std::move(var_of_edge)),
      num_variables_(num_variables),
      adjoint_(view, eipd, var_of_edge_.data(), AnswersOf(terms_)) {
  KGOV_CHECK(var_of_edge_.size() == view.NumEdges());
  for (const Term& term : terms_) {
    weights_.insert(weights_.end(), term.answers.size() - 1, term.weight);
  }
}

void VoteProgram::Evaluate(const std::vector<double>& x,
                           std::vector<double>* values,
                           const Cotangent* cotangent,
                           std::vector<double>* grad) const {
  KGOV_DCHECK(x.size() >= num_variables_);
  values->resize(weights_.size());
  ppr::AdjointWorkspace& ws = ppr::ThreadLocalAdjointWorkspace();
  std::vector<std::pair<graph::NodeId, double>> lambda;
  size_t c = 0;  // the next constraint's index
  for (const Term& term : terms_) {
    adjoint_.Forward(term.seed, x.data(), &ws);
    const std::vector<double>& phi = ws.lane.phi;
    const graph::NodeId best = term.answers[term.best];
    const double best_phi = phi[best];
    lambda.clear();
    double best_lambda = 0.0;
    for (size_t i = 0; i < term.answers.size(); ++i) {
      if (i == term.best) continue;
      // g = Phi(vq, a_i) - Phi(vq, a*); require g < 0 (Eq. 11 / Eq. 13).
      const double g = phi[term.answers[i]] - best_phi;
      (*values)[c] = g;
      if (grad != nullptr) {
        const double w = (*cotangent)(c, g);
        if (w != 0.0) {
          lambda.emplace_back(term.answers[i], w);
          best_lambda -= w;
        }
      }
      ++c;
    }
    if (lambda.empty()) continue;
    lambda.emplace_back(best, best_lambda);
    adjoint_.AccumulateGradient(lambda, x.data(), &ws, grad->data());
  }
}

Result<EncodedProgram> EncodeVoteProgram(const graph::WeightedDigraph& graph,
                                         graph::GraphView view,
                                         const EncoderOptions& options,
                                         const std::vector<Vote>& votes) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  if (view.NumNodes() != graph.NumNodes() ||
      view.NumEdges() != graph.NumEdges() ||
      (!view.HasEdgeIds() && view.NumEdges() > 0)) {
    return Status::InvalidArgument(
        "vote program needs a view of the graph with an edge-id table");
  }
  EncodedProgram program;
  std::vector<VoteProgram::Term> terms;
  for (const Vote& vote : votes) {
    if (!vote.IsWellFormed()) {
      KGOV_LOG(DEBUG) << "skipping malformed vote " << vote.id;
      continue;
    }
    if (!FitsView(vote, view)) {
      return Status::InvalidArgument("vote " + std::to_string(vote.id) +
                                     " names a node outside the graph or a "
                                     "bad seed weight");
    }
    // The reference answer: the user's pick for negative votes, the
    // confirmed top answer for positive votes (they coincide there).
    VoteProgram::Term term;
    term.seed = vote.query;
    term.answers = vote.answer_list;
    term.best = static_cast<size_t>(vote.BestAnswerRank() - 1);
    term.weight = vote.weight;
    terms.push_back(std::move(term));
    program.encoded_vote_ids.push_back(vote.id);
  }
  if (program.encoded_vote_ids.empty()) {
    return Status::InvalidArgument("no well-formed votes to encode");
  }
  const ppr::EipdAdjoint support(view, options.symbolic.eipd, nullptr,
                                 AnswersOf(terms));
  ppr::AdjointWorkspace& ws = ppr::ThreadLocalAdjointWorkspace();
  std::vector<graph::EdgeId> variables;
  for (const VoteProgram::Term& term : terms) {
    support.Forward(term.seed, nullptr, &ws);
    for (graph::EdgeId e : support.SupportEdges(term.answers, nullptr, &ws)) {
      if (IsVariableEdge(options, graph, e)) variables.push_back(e);
    }
  }

  // Declare variables in edge-id order, initialized from the current
  // graph weights (Alg. 1 lines 5-8) and kept inside the box even when a
  // weight strays outside it.
  std::sort(variables.begin(), variables.end());
  variables.erase(std::unique(variables.begin(), variables.end()),
                  variables.end());
  std::vector<int32_t> var_of_edge(graph.NumEdges(), -1);
  for (graph::EdgeId e : variables) {
    const math::VarId var = program.variables.GetOrRegister(e);
    var_of_edge[e] = static_cast<int32_t>(var);
    const double initial =
        std::clamp(graph.Weight(e), options.weight_lower_bound,
                   options.weight_upper_bound);
    program.problem.AddVariable(initial, options.weight_lower_bound,
                                options.weight_upper_bound);
  }
  program.problem.SetConstraints(std::make_shared<const VoteProgram>(
      view, options.symbolic.eipd, std::move(terms), std::move(var_of_edge),
      variables.size()));
  return program;
}

std::vector<std::vector<graph::EdgeId>> VoteEdgeSets(
    graph::GraphView view, const ppr::EipdOptions& eipd,
    const std::vector<Vote>& votes) {
  const ppr::EipdAdjoint support(view, eipd, nullptr,
                                 FittingAnswers(votes, view));
  ppr::AdjointWorkspace& ws = ppr::ThreadLocalAdjointWorkspace();
  std::vector<std::vector<graph::EdgeId>> sets(votes.size());
  for (size_t i = 0; i < votes.size(); ++i) {
    const Vote& vote = votes[i];
    if (!vote.IsWellFormed() || !FitsView(vote, view)) continue;
    support.Forward(vote.query, nullptr, &ws);
    sets[i] = support.SupportEdges(vote.answer_list, nullptr, &ws);
  }
  return sets;
}

}  // namespace kgov::votes
