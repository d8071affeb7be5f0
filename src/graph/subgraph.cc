#include "graph/subgraph.h"

#include <algorithm>
#include <deque>

namespace kgov::graph {

std::vector<NodeId> SelectBfsRegion(const WeightedDigraph& graph,
                                    size_t target, Rng& rng) {
  const size_t n = graph.NumNodes();
  target = std::min(target, n);
  std::vector<char> visited(n, 0);
  std::vector<NodeId> region;
  region.reserve(target);
  std::deque<NodeId> frontier;

  while (region.size() < target) {
    if (frontier.empty()) {
      NodeId start;
      do {
        start = static_cast<NodeId>(rng.NextIndex(n));
      } while (visited[start]);
      visited[start] = 1;
      region.push_back(start);
      frontier.push_back(start);
      continue;
    }
    NodeId u = frontier.front();
    frontier.pop_front();
    for (const OutEdge& out : graph.OutEdges(u)) {
      if (region.size() >= target) break;
      if (visited[out.to]) continue;
      visited[out.to] = 1;
      region.push_back(out.to);
      frontier.push_back(out.to);
    }
  }
  return region;
}

size_t CountInternalEdges(const WeightedDigraph& graph,
                          const std::vector<NodeId>& nodes) {
  // Tolerates out-of-range and duplicate entries (set semantics).
  std::vector<char> inside(graph.NumNodes(), 0);
  for (NodeId v : nodes) {
    if (graph.IsValidNode(v)) inside[v] = 1;
  }
  size_t count = 0;
  for (const Edge& e : graph.edges()) {
    if (inside[e.from] && inside[e.to]) ++count;
  }
  return count;
}

std::vector<NodeId> CollectOutNeighborhood(GraphView view,
                                           const std::vector<NodeId>& roots,
                                           int depth) {
  std::vector<char> visited(view.NumNodes(), 0);
  std::vector<NodeId> ball;
  std::vector<NodeId> frontier;
  for (NodeId r : roots) {
    if (!view.IsValidNode(r) || visited[r]) continue;
    visited[r] = 1;
    ball.push_back(r);
    frontier.push_back(r);
  }
  std::vector<NodeId> next;
  for (int level = 0; level < depth && !frontier.empty(); ++level) {
    next.clear();
    for (NodeId u : frontier) {
      for (const GraphView::Neighbor* it = view.begin(u);
           it != view.end(u); ++it) {
        if (visited[it->to]) continue;
        visited[it->to] = 1;
        ball.push_back(it->to);
        next.push_back(it->to);
      }
    }
    frontier.swap(next);
  }
  return ball;
}

}  // namespace kgov::graph
