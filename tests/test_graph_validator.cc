#include "core/resilience.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "graph/graph.h"

namespace kgov::core {
namespace {

graph::WeightedDigraph MakeGraph() {
  graph::WeightedDigraph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  return g;
}

TEST(GraphValidatorTest, AcceptsWeightOnlyUpdate) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(0, 0.7);
  after.SetWeight(1, 0.3);
  EXPECT_TRUE(ValidateGraphUpdate(before, after).ok());
}

TEST(GraphValidatorTest, RejectsNonFiniteWeight) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(1, std::numeric_limits<double>::quiet_NaN());
  Status status = ValidateGraphUpdate(before, after);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos);
}

TEST(GraphValidatorTest, RejectsOutOfBoundsWeight) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(2, 1.5);
  Status status = ValidateGraphUpdate(before, after);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(GraphValidatorTest, RejectsBrokenNormalization) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  after.SetWeight(0, 0.9);  // node 0 out-weights now sum to 1.3
  GraphValidatorOptions options;
  Status status = ValidateGraphUpdate(before, after, options);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("normalization"), std::string::npos);
}

TEST(GraphValidatorTest, RejectsEdgeDrift) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after = before;
  ASSERT_TRUE(after.AddEdge(2, 0, 0.1).ok());
  Status status = ValidateGraphUpdate(before, after);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("drift"), std::string::npos);
}

TEST(GraphValidatorTest, RejectsNodeCountDrift) {
  graph::WeightedDigraph before = MakeGraph();
  graph::WeightedDigraph after(4);
  EXPECT_FALSE(ValidateGraphUpdate(before, after).ok());
}

}  // namespace
}  // namespace kgov::core
