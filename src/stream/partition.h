// GraphPartition: a fixed partition of the graph's nodes into contiguous
// BFS chunks, the cluster granularity of the streaming write path.
//
// The optimizer never changes the graph's topology (only SetWeight), so a
// partition built once from the initial graph stays valid across every
// epoch. Both sides of the streaming pipeline key off it:
//
//  * the write side diffs consecutive graphs into a changed-cluster set
//    per epoch (the clusters of every bitwise-changed edge's source);
//  * the serve side tags each cached ranking with the clusters of the
//    nodes its propagation reads out-edges from (serve::DependencySet)
//    and drops only entries that intersect an epoch's changed set.
//
// BFS chunking keeps each cluster topologically local, so the edges a
// vote moves (and a seed's dependency ball) land in few clusters and
// selective invalidation has something to save.

#ifndef KGOV_STREAM_PARTITION_H_
#define KGOV_STREAM_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace kgov::stream {

class GraphPartition {
 public:
  /// Partitions `graph`'s nodes into at most `target_clusters` chunks of
  /// roughly equal size by BFS over out-edges (small components are packed
  /// together rather than opening new clusters). Deterministic.
  static Result<GraphPartition> Build(const graph::WeightedDigraph& graph,
                                      size_t target_clusters);

  /// Cluster of `node`. Out-of-range nodes map to cluster 0 (callers pass
  /// ids validated against the graph this partition was built from).
  uint32_t ClusterOf(graph::NodeId node) const {
    return node < cluster_of_.size() ? cluster_of_[node] : 0;
  }

  size_t num_clusters() const { return num_clusters_; }
  size_t num_nodes() const { return cluster_of_.size(); }

 private:
  GraphPartition(std::vector<uint32_t> cluster_of, size_t num_clusters)
      : cluster_of_(std::move(cluster_of)), num_clusters_(num_clusters) {}

  std::vector<uint32_t> cluster_of_;
  size_t num_clusters_ = 0;
};

}  // namespace kgov::stream

#endif  // KGOV_STREAM_PARTITION_H_
