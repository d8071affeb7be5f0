// Subgraph utilities: BFS region selection, internal-edge counting and
// bounded out-neighbourhoods. The synthetic vote workloads (paper SVII-A)
// link queries and answers into an Nnodes-node region of a larger graph.

#ifndef KGOV_GRAPH_SUBGRAPH_H_
#define KGOV_GRAPH_SUBGRAPH_H_

#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_view.h"

namespace kgov::graph {

/// Collects up to `target` nodes by BFS over out-edges from random start
/// nodes (re-seeding on frontier exhaustion until the target is met or all
/// nodes are visited). Deterministic given `rng`.
std::vector<NodeId> SelectBfsRegion(const WeightedDigraph& graph,
                                    size_t target, Rng& rng);

/// Number of edges with both endpoints inside `nodes`.
size_t CountInternalEdges(const WeightedDigraph& graph,
                          const std::vector<NodeId>& nodes);

/// Nodes reachable from `roots` within `depth` out-edge hops (the L-ball
/// that bounds a length-limited propagation), roots included, each node
/// once. Out-of-range roots are ignored.
std::vector<NodeId> CollectOutNeighborhood(GraphView view,
                                           const std::vector<NodeId>& roots,
                                           int depth);

}  // namespace kgov::graph

#endif  // KGOV_GRAPH_SUBGRAPH_H_
