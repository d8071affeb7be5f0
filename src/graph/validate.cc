#include "graph/validate.h"

#include <cmath>
#include <string>
#include <unordered_set>

#include "common/contracts.h"
#include "common/status.h"

namespace kgov::graph {

Status ValidateCsr(const GraphView& view) {
  const size_t num_nodes = view.NumNodes();
  if (num_nodes == 0) return Status::OK();

  // Offset monotonicity and contiguity, expressed through the pointer
  // ranges the view hands out (the offsets array itself is private).
  const GraphView::Neighbor* const base = view.begin(0);
  const GraphView::Neighbor* prev_end = base;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const GraphView::Neighbor* row_begin = view.begin(v);
    const GraphView::Neighbor* row_end = view.end(v);
    if (row_begin != prev_end) {
      return Status::Internal("csr offsets not contiguous at node " +
                              std::to_string(v));
    }
    if (row_end < row_begin) {
      return Status::Internal("csr offsets not monotone at node " +
                              std::to_string(v));
    }
    prev_end = row_end;
  }
  if (static_cast<size_t>(prev_end - base) != view.NumEdges()) {
    return Status::Internal(
        "csr neighbor total disagrees with NumEdges(): rows cover " +
        std::to_string(prev_end - base) + " slots, NumEdges() reports " +
        std::to_string(view.NumEdges()));
  }

  // Targets in range, weights finite and non-negative.
  for (NodeId v = 0; v < num_nodes; ++v) {
    size_t slot = 0;
    for (const GraphView::Neighbor* n = view.begin(v); n != view.end(v);
         ++n, ++slot) {
      if (!view.IsValidNode(n->to)) {
        return Status::Internal(
            "csr target out of range: node " + std::to_string(v) + " slot " +
            std::to_string(slot) + " points to " + std::to_string(n->to) +
            " (graph has " + std::to_string(num_nodes) + " nodes)");
      }
      if (!std::isfinite(n->weight) || n->weight < 0.0) {
        return Status::Internal("csr weight invalid: node " +
                                std::to_string(v) + " slot " +
                                std::to_string(slot) + " has weight " +
                                std::to_string(n->weight));
      }
    }
  }

  // Edge-id remap injectivity: a duplicated id would make EdgeId-keyed
  // variables hit two CSR slots at once.
  if (view.HasEdgeIds()) {
    std::unordered_set<EdgeId> seen;
    seen.reserve(view.NumEdges());
    for (NodeId v = 0; v < num_nodes; ++v) {
      const EdgeId* ids = view.edge_ids(v);
      const size_t degree = view.OutDegree(v);
      for (size_t slot = 0; slot < degree; ++slot) {
        if (!seen.insert(ids[slot]).second) {
          return Status::Internal("csr edge-id remap not injective: id " +
                                  std::to_string(ids[slot]) +
                                  " appears twice (second at node " +
                                  std::to_string(v) + " slot " +
                                  std::to_string(slot) + ")");
        }
      }
    }
  }
  return Status::OK();
}

namespace internal {

void DebugValidateView(const GraphView& view) {
  KGOV_CHECK_OK(ValidateCsr(view));
}

}  // namespace internal
}  // namespace kgov::graph
