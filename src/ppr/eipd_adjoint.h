// Adjoint EIPD: Phi at trial edge weights, its gradient, and the edges its
// walks use, each by one propagation over a vote's L-ball (paper Eq. 7-9,
// 19).
//
// Forward. The serving kernel's lane primitives (internal::SeedLane,
// AbsorbLane, AdvanceLane) run the seed, and every level's frontier and
// mass is recorded:
//
//   mass_1 = the seed links,  mass_{l+1}(v) = sum_u mass_l(u) * w(u,v),
//   Phi(a) = sum_{l=1..L} c(1-c)^l * mass_l(a).
//
// At unchanged weights the forward Phi is bitwise what EipdEngine returns:
// same primitives, same operation order.
//
// Backward. For J = sum_a lambda_a * Phi(a) the adjoint of mass_l is
//
//   r_L(u) = c(1-c)^L * lambda_u,
//   r_l(u) = c(1-c)^l * lambda_u + sum_v w(u,v) * r_{l+1}(v),
//   dJ/dw(u,v) = sum_{l<L} mass_l(u) * r_{l+1}(v).
//
// r_l is needed only on level l's frontier (mass_l is zero elsewhere), and
// every positive-weight out-neighbour of a level-l node is on level l+1's
// frontier, so the backward pass pulls over the out-edges the forward pass
// pushed along: no reverse CSR. With lambda = 1 on a set of targets, an
// edge (u,v) lies on a walk of length <= L from the seed to a target iff
// mass_l(u) > 0 and r_{l+1}(v) > 0 for some l; that is the support
// (SupportEdges), the paper's Set(v_a) and E(t).
//
// Targets. A caller that reads Phi only at some nodes (a vote's answers)
// names them at construction. r_L is zero off the targets, so on the hop
// into level L every edge whose head is not a target adds w * 0: the
// forward hop into level L and the backward's first pull walk only the
// CSR slots into the targets (indexed once, in CSR order), and every
// target's Phi, the gradient and the support stay bitwise what they are
// without the set. The cost: after Forward, lane.phi is exact only on the
// targets.

#ifndef KGOV_PPR_EIPD_ADJOINT_H_
#define KGOV_PPR_EIPD_ADJOINT_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"

namespace kgov::ppr {

/// Per-thread scratch for EipdAdjoint. Between calls every dense vector is
/// zero except `lane` (which resets itself in O(touched), see
/// PropagationWorkspace), so a reset costs O(touched), not O(|V|).
struct AdjointWorkspace {
  /// The forward lane; after Forward, lane.phi[v] = Phi(seed, v) for every
  /// target v of the adjoint (every node, when it has no target set).
  PropagationWorkspace lane;
  /// Level l (0-based, walk length l + 1) of the last Forward occupies
  /// [level_begin[l], level_begin[l + 1]) of level_nodes / level_mass.
  std::vector<size_t> level_begin;
  std::vector<graph::NodeId> level_nodes;
  std::vector<double> level_mass;
  /// Dense adjoints r_l and r_{l+1}, nonzero only on their frontiers
  /// while a backward pass runs.
  std::vector<double> adjoint;
  std::vector<double> adjoint_next;
  /// Dense lambda, nonzero only on the seeded nodes while a pass runs.
  std::vector<double> lambda;
};

/// The calling thread's adjoint workspace.
AdjointWorkspace& ThreadLocalAdjointWorkspace();

namespace internal {

/// A GraphView whose variable edges weigh what a trial point says: edge e
/// with var_of_edge[e] >= 0 weighs x[var_of_edge[e]], every other edge
/// keeps the view's weight. A null `var_of_edge` or `x` leaves every
/// weight as the view has it. The index is dense by EdgeId, so the view
/// must carry edge ids. With `only` set, a node's out-edges are just the
/// slots `only` lists for it, as for ViewAdjacency.
struct VariableAdjacency {
  graph::GraphView view;
  const int32_t* var_of_edge;
  const double* x;
  const TargetSlots* only = nullptr;

  size_t NumNodes() const { return view.NumNodes(); }
  bool IsValidNode(graph::NodeId v) const { return view.IsValidNode(v); }
  size_t OutDegree(graph::NodeId u) const {
    return only == nullptr ? view.OutDegree(u)
                           : only->begin[u + 1] - only->begin[u];
  }

  /// fn(to, weight, edge id, variable or -1) for every out-edge of u.
  template <typename Fn>
  void ForEachOutEdge(graph::NodeId u, Fn&& fn) const {
    const graph::GraphView::Neighbor* b = view.begin(u);
    const graph::EdgeId* ids = view.edge_ids(u);
    auto visit = [&](size_t k) {
      const graph::EdgeId id = ids[k];
      const int32_t var = var_of_edge == nullptr ? -1 : var_of_edge[id];
      fn(b[k].to, var >= 0 && x != nullptr ? x[var] : b[k].weight, id, var);
    };
    if (only == nullptr) {
      for (size_t k = 0, e = view.OutDegree(u); k < e; ++k) visit(k);
    } else {
      for (size_t i = only->begin[u]; i < only->begin[u + 1]; ++i) {
        visit(only->offsets[i]);
      }
    }
  }

  template <typename Fn>
  void ForEachOut(graph::NodeId u, Fn&& fn) const {
    ForEachOutEdge(u, [&fn](graph::NodeId to, double w, graph::EdgeId,
                            int32_t) { fn(to, w); });
  }
};

}  // namespace internal

/// Forward and backward EIPD passes over a view whose variable edges read
/// their weights from a trial point x. Thread-compatible: concurrent calls
/// are safe with one workspace per thread. The view and the variable index
/// are borrowed and must outlive the adjoint. The index is read on every
/// pass, never cached, so a caller may rewrite its entries between passes
/// (the judgment filter makes one vote's edges variables at a time).
class EipdAdjoint {
 public:
  /// `var_of_edge` (null: no variables) maps each EdgeId of the view to a
  /// variable index, or -1 for an edge that keeps its weight. `targets`
  /// (empty: every node) are the nodes whose Phi the caller reads; each
  /// lambda node and support target must be one of them. The constructor
  /// indexes, once, the CSR slots whose head is a target (the engine's
  /// internal::BuildTargetSlots), and the forward
  /// hop into level L and the backward's first pull walk only those: the
  /// other level-L terms are w * 0 additions, so every target's Phi, the
  /// gradient and the support are bitwise what an untargeted adjoint gives.
  EipdAdjoint(graph::GraphView view, EipdOptions options,
              const int32_t* var_of_edge = nullptr,
              std::span<const graph::NodeId> targets = {});

  /// Runs `seed` at trial point `x` (null: the view's weights) and records
  /// every level in `ws`; afterwards ws->lane.phi[v] = Phi(seed, v) for
  /// every target v (for every node when the adjoint has no target set;
  /// with one, other nodes miss their level-L mass). The seed must name
  /// valid nodes (EipdEngine::ValidateSeed).
  void Forward(const QuerySeed& seed, const double* x,
               AdjointWorkspace* ws) const;

  /// Backward pass over the last Forward (same x): for
  /// J = sum over (a, lambda_a) in `lambda` of lambda_a * Phi(seed, a),
  /// adds dJ/dx_k to grad[k] for every variable k the walks traverse.
  void AccumulateGradient(
      std::span<const std::pair<graph::NodeId, double>> lambda,
      const double* x, AdjointWorkspace* ws, double* grad) const;

  /// Every edge, fixed or variable, on a walk of length <= L from the last
  /// Forward's seed (same x) to one of `targets`, sorted and unique:
  /// Set(v_a) for one target, E(t) for a vote's answer list.
  std::vector<graph::EdgeId> SupportEdges(
      std::span<const graph::NodeId> targets, const double* x,
      AdjointWorkspace* ws) const;

 private:
  /// The backward recurrence with lambda already in ws->lambda; calls
  /// on_edge(edge, variable, mass_l(u), r_{l+1}(v)) for every traversed
  /// edge (u,v) of every level l < L.
  template <typename OnEdge>
  void Pull(const double* x, AdjointWorkspace* ws, OnEdge&& on_edge) const;

  /// The adjacency at trial point x for the hop into level `len` (1-based
  /// walk length): the target slots for len == L when targeted.
  internal::VariableAdjacency HopInto(int len, const double* x) const;

  /// True when `node` is a target (always, without a target set).
  bool IsTarget(graph::NodeId node) const;

  graph::GraphView view_;
  EipdOptions options_;
  const int32_t* var_of_edge_;
  /// The target index; empty (no is_target entries) means every node.
  internal::TargetSlots last_hop_;
  /// c(1-c)^l for l = 1..L, computed as PropagatePhi does.
  std::vector<double> decay_;
};

}  // namespace kgov::ppr

#endif  // KGOV_PPR_EIPD_ADJOINT_H_
