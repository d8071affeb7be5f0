// Golden digest of the learning path: every optimizer entry point run on a
// small seeded workload, its optimized weights folded into one CRC-32C.
// Refactors of the encoder, the solvers, split-and-merge or the scoped
// streaming flush must leave every weight bitwise identical; a change that
// moves any of them (even in the last ulp) changes the digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/kg_optimizer.h"
#include "core/online_optimizer.h"
#include "graph/generators.h"
#include "votes/vote_generator.h"

namespace kgov::core {
namespace {

using graph::WeightedDigraph;

uint32_t FoldWeights(const WeightedDigraph& g, uint32_t crc) {
  std::vector<double> weights;
  weights.reserve(g.NumEdges());
  for (const graph::Edge& edge : g.edges()) weights.push_back(edge.weight);
  return Crc32c(weights.data(), weights.size() * sizeof(double), crc);
}

uint32_t FoldCount(int value, uint32_t crc) {
  return Crc32c(&value, sizeof(value), crc);
}

uint32_t FoldReport(const OptimizeReport& report, uint32_t crc) {
  return FoldCount(report.constraints_satisfied,
                   FoldWeights(report.optimized, crc));
}

TEST(LearningGoldenTest, OptimizerDigestIsPinned) {
  Rng rng(4242);
  Result<WeightedDigraph> base =
      graph::ScaleFreeWithTargetEdges(300, 1200, rng);
  ASSERT_TRUE(base.ok());
  votes::SyntheticVoteParams params;
  params.num_queries = 12;
  params.num_answers = 40;
  params.subgraph_nodes = 150;
  params.top_k = 8;
  params.avg_negative_rank = 4.0;
  params.negative_fraction = 0.7;
  params.eipd.max_length = 4;
  Result<votes::SyntheticWorkload> workload =
      votes::GenerateSyntheticWorkload(*base, params, rng);
  ASSERT_TRUE(workload.ok());

  OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  options.encoder.symbolic.min_path_mass = 1e-8;
  options.encoder.is_variable = workload->EntityEdgePredicate();

  uint32_t crc = 0;
  KgOptimizer optimizer(&workload->graph, options);
  Result<OptimizeReport> single = optimizer.SingleVoteSolve(workload->votes);
  ASSERT_TRUE(single.ok()) << single.status();
  crc = FoldWeights(single->optimized, crc);
  Result<OptimizeReport> multi = optimizer.MultiVoteSolve(workload->votes);
  ASSERT_TRUE(multi.ok()) << multi.status();
  crc = FoldReport(*multi, crc);
  Result<OptimizeReport> split = optimizer.SplitMergeSolve(workload->votes);
  ASSERT_TRUE(split.ok()) << split.status();
  ASSERT_GT(split->num_clusters, 1u);
  crc = FoldReport(*split, crc);

  // One scoped flush per strategy, re-solving every other partition
  // cluster so that the scope holds part of the variable edges constant.
  for (FlushStrategy strategy :
       {FlushStrategy::kMultiVote, FlushStrategy::kSplitMerge}) {
    OnlineOptimizerOptions online_options;
    online_options.optimizer = options;
    online_options.batch_size = 1000;
    online_options.strategy = strategy;
    online_options.partition_clusters = 8;
    OnlineKgOptimizer online(workload->graph, online_options);
    for (const votes::Vote& vote : workload->votes) {
      ASSERT_TRUE(online.IngestLogged(vote).ok());
    }
    std::vector<uint32_t> dirty;
    for (uint32_t c = 0; c < online.partition()->num_clusters(); c += 2) {
      dirty.push_back(c);
    }
    Result<FlushReport> flush = online.FlushScoped(dirty);
    ASSERT_TRUE(flush.ok()) << flush.status();
    ASSERT_TRUE(flush->epoch_published);
    crc = FoldCount(flush->constraints_satisfied,
                    FoldWeights(online.graph(), crc));
  }
  EXPECT_EQ(crc, 0x05471fe8u) << std::hex << "digest 0x" << crc;
}

}  // namespace
}  // namespace kgov::core
