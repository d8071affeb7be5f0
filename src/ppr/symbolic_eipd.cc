#include "ppr/symbolic_eipd.h"

#include "common/logging.h"

namespace kgov::ppr {

struct SymbolicEipd::DfsState {
  EdgeVariableMap* vars = nullptr;
  std::vector<SymbolicAnswer>* out = nullptr;
  // answer node -> index into out (-1 = not an answer).
  std::vector<int> answer_index;
  // Edges of the current walk, in order (for path_edges bookkeeping).
  std::vector<graph::EdgeId> walk_edges;
  // Subset of walk_edges that are variables (with positions preserved so
  // multiplicity is implicit).
  std::vector<graph::EdgeId> variable_edges;
  // Precomputed c*(1-c)^len for len = 0..L.
  std::vector<double> decay;
};

SymbolicEipd::SymbolicEipd(const graph::WeightedDigraph* graph,
                           EdgePredicate is_variable,
                           SymbolicEipdOptions options)
    : graph_(graph),
      is_variable_(std::move(is_variable)),
      options_(options) {
  KGOV_CHECK(graph_ != nullptr);
  KGOV_CHECK(options_.eipd.max_length >= 1);
}

std::vector<SymbolicAnswer> SymbolicEipd::Collect(
    const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
    EdgeVariableMap* vars) const {
  KGOV_CHECK(vars != nullptr);
  DfsState state;
  state.vars = vars;

  std::vector<SymbolicAnswer> out(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    out[i].answer = answers[i];
  }
  state.out = &out;

  state.answer_index.assign(graph_->NumNodes(), -1);
  for (size_t i = 0; i < answers.size(); ++i) {
    KGOV_CHECK(graph_->IsValidNode(answers[i]));
    state.answer_index[answers[i]] = static_cast<int>(i);
  }

  const double c = options_.eipd.restart;
  state.decay.resize(options_.eipd.max_length + 1);
  double d = c;
  for (int len = 0; len <= options_.eipd.max_length; ++len) {
    state.decay[len] = d;
    d *= 1.0 - c;
  }

  // The first hop follows the seed links; seed weights are fixed
  // coefficients (query links are not optimizable edges).
  for (const auto& [node, weight] : seed.links) {
    KGOV_CHECK(graph_->IsValidNode(node));
    if (weight <= 0.0) continue;
    Dfs(&state, node, /*length=*/1, /*numeric_mass=*/weight,
        /*fixed_coeff=*/weight);
  }

  for (SymbolicAnswer& answer : out) {
    answer.similarity.Compact();
  }
  return out;
}

void SymbolicEipd::Dfs(DfsState* state, graph::NodeId node, int length,
                       double numeric_mass, double fixed_coeff) const {
  int answer_idx = state->answer_index[node];
  if (answer_idx >= 0) {
    SymbolicAnswer& answer = (*state->out)[answer_idx];
    std::vector<std::pair<math::VarId, double>> powers;
    powers.reserve(state->variable_edges.size());
    for (graph::EdgeId e : state->variable_edges) {
      powers.emplace_back(state->vars->GetOrRegister(e), 1.0);
    }
    // Monomial normalization merges repeated edges into one power.
    answer.similarity.AddTerm(
        math::Monomial(fixed_coeff * state->decay[length], std::move(powers)));
    answer.path_edges.insert(state->walk_edges.begin(),
                             state->walk_edges.end());
  }

  if (length >= options_.eipd.max_length) return;

  for (const graph::OutEdge& out : graph_->OutEdges(node)) {
    double w = graph_->Weight(out.edge);
    if (w <= 0.0) continue;
    double next_mass = numeric_mass * w;
    if (options_.min_path_mass > 0.0 && next_mass < options_.min_path_mass) {
      continue;
    }
    bool variable = !is_variable_ || is_variable_(*graph_, out.edge);
    state->walk_edges.push_back(out.edge);
    if (variable) {
      state->variable_edges.push_back(out.edge);
      Dfs(state, out.to, length + 1, next_mass, fixed_coeff);
      state->variable_edges.pop_back();
    } else {
      Dfs(state, out.to, length + 1, next_mass, fixed_coeff * w);
    }
    state->walk_edges.pop_back();
  }
}

}  // namespace kgov::ppr
