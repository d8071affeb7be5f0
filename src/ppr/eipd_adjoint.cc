#include "ppr/eipd_adjoint.h"

#include <algorithm>

#include "common/logging.h"

namespace kgov::ppr {

namespace {

// Sizes a dense scratch vector for n nodes. Entries are zero between
// passes, so only a size change needs a fill.
void Fit(std::vector<double>* v, size_t n) {
  if (v->size() != n) v->assign(n, 0.0);
}

}  // namespace

AdjointWorkspace& ThreadLocalAdjointWorkspace() {
  static thread_local AdjointWorkspace ws;
  return ws;
}

EipdAdjoint::EipdAdjoint(graph::GraphView view, EipdOptions options,
                         const int32_t* var_of_edge,
                         std::span<const graph::NodeId> targets)
    : view_(view), options_(options), var_of_edge_(var_of_edge) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
  KGOV_CHECK(view_.HasEdgeIds() || view_.NumEdges() == 0)
      << "EipdAdjoint needs a view with an edge-id table";
  const double c = options_.restart;
  double decay = c * (1.0 - c);
  for (int len = 1; len <= options_.max_length; ++len) {
    decay_.push_back(decay);
    decay *= 1.0 - c;
  }
  if (!targets.empty()) {
    last_hop_ = internal::BuildTargetSlots(view_, targets);
  }
}

internal::VariableAdjacency EipdAdjoint::HopInto(int len,
                                                 const double* x) const {
  const bool last =
      len == options_.max_length && !last_hop_.is_target.empty();
  return {view_, var_of_edge_, x, last ? &last_hop_ : nullptr};
}

bool EipdAdjoint::IsTarget(graph::NodeId node) const {
  return last_hop_.is_target.empty() || last_hop_.is_target[node] != 0;
}

void EipdAdjoint::Forward(const QuerySeed& seed, const double* x,
                          AdjointWorkspace* ws) const {
  internal::SeedLane(internal::VariableAdjacency{view_, var_of_edge_, x},
                     seed, &ws->lane);
  ws->level_begin.assign(1, 0);
  ws->level_nodes.clear();
  ws->level_mass.clear();
  for (int len = 1; len <= options_.max_length; ++len) {
    for (graph::NodeId v : ws->lane.frontier) {
      ws->level_nodes.push_back(v);
      ws->level_mass.push_back(ws->lane.mass[v]);
    }
    ws->level_begin.push_back(ws->level_nodes.size());
    internal::AbsorbLane(&ws->lane, decay_[len - 1]);
    if (len == options_.max_length) break;
    internal::AdvanceLane(HopInto(len + 1, x), &ws->lane);
  }
}

template <typename OnEdge>
void EipdAdjoint::Pull(const double* x, AdjointWorkspace* ws,
                       OnEdge&& on_edge) const {
  const size_t n = view_.NumNodes();
  Fit(&ws->adjoint, n);
  Fit(&ws->adjoint_next, n);
  const std::vector<size_t>& begin = ws->level_begin;
  const size_t levels = begin.size() - 1;
  // Invariant at the top of iteration l: adjoint_next holds r_{l+1} on
  // level l+1's frontier and is zero elsewhere; adjoint is all zero.
  for (size_t l = levels; l-- > 0;) {
    std::vector<double>& next = ws->adjoint_next;
    // Level l + 1 holds walks of length l + 2.
    const internal::VariableAdjacency hop =
        HopInto(static_cast<int>(l) + 2, x);
    for (size_t i = begin[l]; i < begin[l + 1]; ++i) {
      const graph::NodeId u = ws->level_nodes[i];
      double r = decay_[l] * ws->lambda[u];
      if (l + 1 < levels) {
        const double mass = ws->level_mass[i];
        hop.ForEachOutEdge(u, [&](graph::NodeId to, double w,
                                  graph::EdgeId edge, int32_t var) {
          if (w <= 0.0) return;  // AdvanceLane skips these edges too
          const double r_to = next[to];
          r += w * r_to;
          on_edge(edge, var, mass, r_to);
        });
      }
      ws->adjoint[u] = r;
    }
    if (l + 1 < levels) {
      for (size_t i = begin[l + 1]; i < begin[l + 2]; ++i) {
        next[ws->level_nodes[i]] = 0.0;
      }
    }
    ws->adjoint.swap(ws->adjoint_next);
  }
  for (size_t i = begin[0]; i < begin[1]; ++i) {
    ws->adjoint_next[ws->level_nodes[i]] = 0.0;
  }
}

void EipdAdjoint::AccumulateGradient(
    std::span<const std::pair<graph::NodeId, double>> lambda,
    const double* x, AdjointWorkspace* ws, double* grad) const {
  Fit(&ws->lambda, view_.NumNodes());
  for (const auto& [node, weight] : lambda) {
    KGOV_DCHECK(IsTarget(node));
    ws->lambda[node] += weight;
  }
  Pull(x, ws,
       [grad](graph::EdgeId, int32_t var, double mass, double r) {
         if (var >= 0) grad[var] += mass * r;
       });
  for (const auto& [node, weight] : lambda) ws->lambda[node] = 0.0;
}

std::vector<graph::EdgeId> EipdAdjoint::SupportEdges(
    std::span<const graph::NodeId> targets, const double* x,
    AdjointWorkspace* ws) const {
  Fit(&ws->lambda, view_.NumNodes());
  for (graph::NodeId t : targets) {
    KGOV_DCHECK(IsTarget(t));
    ws->lambda[t] = 1.0;
  }
  std::vector<graph::EdgeId> edges;
  Pull(x, ws,
       [&edges](graph::EdgeId edge, int32_t, double, double r) {
         if (r > 0.0) edges.push_back(edge);
       });
  for (graph::NodeId t : targets) ws->lambda[t] = 0.0;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace kgov::ppr
