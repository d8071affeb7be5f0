// GraphView: the non-owning, immutable, CSR-backed read interface of kgov.
//
// The mutable WeightedDigraph is the *write* representation (O(1) weight
// updates for the optimizer); every read-side consumer — EIPD serving, PPR,
// Omega scoring, the Q&A baselines — operates on a GraphView:
// contiguous (target, weight) neighbor ranges plus an optional edge-id
// table mapping each CSR slot back to the originating WeightedDigraph edge,
// so an index keyed by EdgeId (ppr::EipdAdjoint's variables) reads trial
// weights straight off a view.
//
// Lifetime rules: a GraphView borrows its arrays from backing storage
// (graph::CsrSnapshot) and is valid only while that
// storage is alive and unmodified. Views are trivially copyable — pass
// them by value. For epoch-based serving, hold the storage via
// shared_ptr (see core::OnlineKgOptimizer::serving()) and copy views
// freely underneath it.

#ifndef KGOV_GRAPH_GRAPH_VIEW_H_
#define KGOV_GRAPH_GRAPH_VIEW_H_

#include <cstddef>

#include "graph/graph.h"

namespace kgov::graph {

class GraphView;

namespace internal {
/// Debug-build hook (see graph/validate.h): structurally validates a view
/// built from raw arrays. Honors contracts::CheckMode, so soft-mode
/// processes log-and-count instead of aborting.
void DebugValidateView(const GraphView& view);
}  // namespace internal

/// Immutable CSR view over borrowed storage. Cheap to copy.
class GraphView {
 public:
  /// A single out-neighbor entry.
  struct Neighbor {
    NodeId to;
    double weight;
  };

  /// An empty view (0 nodes, 0 edges).
  GraphView() = default;

  /// Wraps borrowed CSR arrays: `offsets` has `num_nodes + 1` entries,
  /// `neighbors` has `offsets[num_nodes]` entries, and `edge_ids` (may be
  /// null) parallels `neighbors` with the originating edge ids.
  GraphView(size_t num_nodes, const size_t* offsets,
            const Neighbor* neighbors, const EdgeId* edge_ids)
      : num_nodes_(num_nodes),
        offsets_(offsets),
        neighbors_(neighbors),
        edge_ids_(edge_ids) {
#if !defined(NDEBUG)
    // Debug builds structurally validate every view assembled from raw
    // arrays (copies of a validated view skip the check; the default
    // copy constructor does not re-enter here).
    internal::DebugValidateView(*this);
#endif
  }

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const {
    return num_nodes_ == 0 ? 0 : offsets_[num_nodes_];
  }
  bool IsValidNode(NodeId node) const { return node < num_nodes_; }

  /// Out-neighbors of `node` as a contiguous range.
  const Neighbor* begin(NodeId node) const {
    return neighbors_ + offsets_[node];
  }
  const Neighbor* end(NodeId node) const {
    return neighbors_ + offsets_[node + 1];
  }
  size_t OutDegree(NodeId node) const {
    return offsets_[node + 1] - offsets_[node];
  }

  /// True when the view carries the edge-id table (needed by the
  /// adjoint's EdgeId-keyed variables and support sets).
  bool HasEdgeIds() const { return edge_ids_ != nullptr; }

  /// Edge ids parallel to [begin(node), end(node)); null when the view
  /// carries no edge-id table.
  const EdgeId* edge_ids(NodeId node) const {
    return edge_ids_ == nullptr ? nullptr : edge_ids_ + offsets_[node];
  }

  /// Sum of outgoing weights of `node`.
  double OutWeightSum(NodeId node) const;

  /// True when every node's out-weights sum to <= 1 + tol (mirrors
  /// WeightedDigraph::IsSubStochastic).
  bool IsSubStochastic(double tol = 1e-9) const;

 private:
  size_t num_nodes_ = 0;
  const size_t* offsets_ = nullptr;
  const Neighbor* neighbors_ = nullptr;
  const EdgeId* edge_ids_ = nullptr;
};

}  // namespace kgov::graph

#endif  // KGOV_GRAPH_GRAPH_VIEW_H_
