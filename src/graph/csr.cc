#include "graph/csr.h"

#include "common/contracts.h"

namespace kgov::graph {

CsrSnapshot::CsrSnapshot(const WeightedDigraph& graph) {
  const size_t n = graph.NumNodes();
  offsets_.resize(n + 1, 0);
  neighbors_.reserve(graph.NumEdges());
  edge_ids_.reserve(graph.NumEdges());
  for (NodeId v = 0; v < n; ++v) {
    offsets_[v] = neighbors_.size();
    for (const OutEdge& out : graph.OutEdges(v)) {
      neighbors_.push_back(Neighbor{out.to, graph.Weight(out.edge)});
      edge_ids_.push_back(out.edge);
    }
  }
  offsets_[n] = neighbors_.size();
}

double CsrSnapshot::OutWeightSum(NodeId node) const {
  double sum = 0.0;
  for (const Neighbor* it = begin(node); it != end(node); ++it) {
    sum += it->weight;
  }
  return sum;
}

void CsrSnapshot::RefreshOutWeights(const WeightedDigraph& graph,
                                    NodeId node) {
  const std::vector<OutEdge>& out = graph.OutEdges(node);
  KGOV_DCHECK(out.size() == OutDegree(node));
  Neighbor* slots = neighbors_.data() + offsets_[node];
  for (size_t i = 0; i < out.size(); ++i) {
    slots[i].weight = graph.Weight(out[i].edge);
  }
}

}  // namespace kgov::graph
