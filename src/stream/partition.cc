#include "stream/partition.h"

#include <deque>

namespace kgov::stream {

Result<GraphPartition> GraphPartition::Build(
    const graph::WeightedDigraph& graph, size_t target_clusters) {
  if (target_clusters < 1) {
    return Status::InvalidArgument(
        "GraphPartition target_clusters must be >= 1");
  }
  const size_t n = graph.NumNodes();
  if (n == 0) {
    return GraphPartition({}, 0);
  }
  // Equal-size chunks: each cluster fills to `cap` nodes before the next
  // opens, even across weakly connected components, so the cluster count
  // tracks the target instead of the component count.
  const size_t cap = (n + target_clusters - 1) / target_clusters;
  std::vector<uint32_t> cluster_of(n, 0);
  std::vector<uint8_t> visited(n, 0);
  uint32_t cluster = 0;
  size_t in_cluster = 0;
  std::deque<graph::NodeId> frontier;

  auto assign = [&](graph::NodeId node) {
    if (in_cluster >= cap) {
      ++cluster;
      in_cluster = 0;
    }
    cluster_of[node] = cluster;
    ++in_cluster;
  };

  for (graph::NodeId seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    assign(seed);
    frontier.push_back(seed);
    while (!frontier.empty()) {
      const graph::NodeId node = frontier.front();
      frontier.pop_front();
      for (const graph::OutEdge& out : graph.OutEdges(node)) {
        if (visited[out.to]) continue;
        visited[out.to] = 1;
        assign(out.to);
        frontier.push_back(out.to);
      }
    }
  }
  return GraphPartition(std::move(cluster_of),
                        static_cast<size_t>(cluster) + 1);
}

}  // namespace kgov::stream
