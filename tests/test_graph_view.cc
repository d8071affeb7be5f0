#include "graph/graph_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/subgraph.h"
#include "ppr/eipd_adjoint.h"
#include "ppr/eipd_engine.h"

namespace kgov::graph {
namespace {

TEST(GraphViewTest, DefaultViewIsEmpty) {
  GraphView view;
  EXPECT_EQ(view.NumNodes(), 0u);
  EXPECT_EQ(view.NumEdges(), 0u);
  EXPECT_FALSE(view.IsValidNode(0));
  EXPECT_FALSE(view.HasEdgeIds());
  EXPECT_TRUE(view.IsSubStochastic());
}

TEST(GraphViewTest, ViewsAreCheapCopies) {
  WeightedDigraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  CsrSnapshot snap(g);
  GraphView a = snap.View();
  GraphView b = a;  // copies share the snapshot's arrays
  EXPECT_EQ(a.begin(0), b.begin(0));
  EXPECT_DOUBLE_EQ(b.begin(0)->weight, 0.5);
}

TEST(GraphViewTest, EdgeIdsNameTheGraphsEdges) {
  WeightedDigraph g(3);
  EdgeId e01 = *g.AddEdge(0, 1, 0.2);
  EdgeId e12 = *g.AddEdge(1, 2, 0.3);
  EdgeId e10 = *g.AddEdge(1, 0, 0.4);
  CsrSnapshot snap(g);
  GraphView view = snap.View();
  ASSERT_TRUE(view.HasEdgeIds());
  ASSERT_EQ(view.OutDegree(1), 2u);
  EXPECT_EQ(view.edge_ids(0)[0], e01);
  // Slots keep insertion order within a row, each naming its own edge.
  EXPECT_EQ(view.edge_ids(1)[0], e12);
  EXPECT_EQ(view.edge_ids(1)[1], e10);
  EXPECT_DOUBLE_EQ(view.begin(1)[1].weight, g.Weight(e10));
}

TEST(GraphViewTest, EdgeIdKeyedVariablesReadTrialWeights) {
  // A variable index keyed by the graph's EdgeIds reaches the kernel
  // through the view's edge-id table: zeroing 0->1 at the trial point
  // silences node 1 and leaves node 2 as the graph has it.
  WeightedDigraph g(3);
  EdgeId e01 = *g.AddEdge(0, 1, 0.5);
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  CsrSnapshot snap(g);
  std::vector<int32_t> var_of_edge(g.NumEdges(), -1);
  var_of_edge[e01] = 0;
  const double x[] = {0.0};
  ppr::EipdAdjoint adjoint(snap.View(), {}, var_of_edge.data());
  ppr::QuerySeed seed;
  seed.links.emplace_back(0, 1.0);
  ppr::AdjointWorkspace ws;
  adjoint.Forward(seed, x, &ws);
  EXPECT_DOUBLE_EQ(ws.lane.phi[1], 0.0);
  EXPECT_DOUBLE_EQ(ws.lane.phi[2],
                   ppr::EipdEngine(snap.View()).Scores(seed, {2}).value()[0]);
}

TEST(CollectOutNeighborhoodTest, BoundedBfs) {
  // Chain 0 -> 1 -> 2 -> 3 plus an unreachable node 4.
  WeightedDigraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1.0).ok());
  CsrSnapshot snap(g);
  std::vector<NodeId> ball =
      CollectOutNeighborhood(snap.View(), {0}, /*depth=*/2);
  std::sort(ball.begin(), ball.end());
  EXPECT_EQ(ball, (std::vector<NodeId>{0, 1, 2}));

  // Duplicate and out-of-range roots are tolerated.
  ball = CollectOutNeighborhood(snap.View(), {3, 3, 99}, /*depth=*/1);
  EXPECT_EQ(ball, (std::vector<NodeId>{3}));
}

}  // namespace
}  // namespace kgov::graph
