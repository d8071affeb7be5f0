// Immutable CSR (compressed sparse row) snapshot of a WeightedDigraph.
//
// The mutable adjacency-list graph is ideal for the optimizer (O(1) weight
// writes), but each out-edge access indirects through the edge table. A
// serving system that answers many queries between optimization rounds can
// freeze the current weights into a CSR snapshot: contiguous
// (target, weight) pairs per node, cache-friendly and pointer-free, plus a
// parallel edge-id table so EdgeId-keyed variable indices keep working.
// Read-side consumers access a snapshot through its View() (graph::GraphView,
// see graph/graph_view.h); the view borrows the snapshot's arrays and is
// valid only while the snapshot is alive.

#ifndef KGOV_GRAPH_CSR_H_
#define KGOV_GRAPH_CSR_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"

namespace kgov::graph {

/// Frozen graph storage. Cheap to move, immutable after construction except
/// through RefreshOutWeights, which only a snapshot's sole owner may call
/// (views over it must not be in use elsewhere).
class CsrSnapshot {
 public:
  /// A single out-neighbor entry (same layout the GraphView iterates).
  using Neighbor = GraphView::Neighbor;

  /// An empty snapshot (0 nodes); its View() is the empty view.
  CsrSnapshot() = default;

  /// Captures the current topology and weights of `graph`. Valid for any
  /// graph, including the empty graph and graphs whose tail nodes have no
  /// out-edges.
  explicit CsrSnapshot(const WeightedDigraph& graph);

  size_t NumNodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t NumEdges() const { return neighbors_.size(); }
  bool IsValidNode(NodeId node) const { return node < NumNodes(); }

  /// Out-neighbors of `node` as a contiguous range.
  const Neighbor* begin(NodeId node) const {
    return neighbors_.data() + offsets_[node];
  }
  const Neighbor* end(NodeId node) const {
    return neighbors_.data() + offsets_[node + 1];
  }
  size_t OutDegree(NodeId node) const {
    return offsets_[node + 1] - offsets_[node];
  }

  /// Sum of outgoing weights of `node`.
  double OutWeightSum(NodeId node) const;

  /// Re-reads the out-weights of `node` from `graph`, the graph this
  /// snapshot was built from (same topology, weights since changed).
  void RefreshOutWeights(const WeightedDigraph& graph, NodeId node);

  /// The non-owning read view over this snapshot, including the edge-id
  /// table (view.HasEdgeIds() is true). Valid while the snapshot lives.
  GraphView View() const {
    if (offsets_.empty()) return GraphView{};
    return GraphView(NumNodes(), offsets_.data(), neighbors_.data(),
                     edge_ids_.data());
  }

 private:
  // offsets_[v]..offsets_[v+1] indexes neighbors_ for node v; has
  // NumNodes()+1 entries (default-constructed snapshot: stays empty).
  std::vector<size_t> offsets_;
  std::vector<Neighbor> neighbors_;
  // Parallel to neighbors_: the WeightedDigraph EdgeId each slot came from.
  std::vector<EdgeId> edge_ids_;
};

}  // namespace kgov::graph

#endif  // KGOV_GRAPH_CSR_H_
