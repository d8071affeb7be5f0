// Golden digests of the learning path: every optimizer entry point run on
// a small seeded workload, its optimized weights folded into one CRC-32C,
// and the same workload streamed through the pipeline one vote per
// micro-batch. Refactors of the vote program, the solvers, split-and-merge,
// the online flush or the stream pipeline must leave every weight bitwise
// identical; a change that moves any of them (even in the last ulp)
// changes a digest.
// Beside it, the same workload is solved through both constraint
// implementations (adjoint vote program, signomial oracle), which must
// land on the same point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/kg_optimizer.h"
#include "core/online_optimizer.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "stream/pipeline.h"
#include "telemetry/metrics.h"
#include "votes/judgment.h"
#include "votes/vote_encoder.h"
#include "votes/vote_generator.h"
#include "votes/vote_program.h"

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

votes::SyntheticWorkload GoldenWorkload() {
  Rng rng(4242);
  Result<WeightedDigraph> base =
      graph::ScaleFreeWithTargetEdges(300, 1200, rng);
  EXPECT_TRUE(base.ok());
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
  EXPECT_TRUE(workload.ok());
  return std::move(workload).value();
}

// Assigns `g`'s nodes to at most `target` clusters of equal size, filled in
// breadth-first order over out-edges from each unvisited node in id order
// (a cluster fills before the next opens, across components). The
// optimizer digest scopes its variables with it, so the assignment is
// frozen: changing it changes the digest.
std::vector<uint32_t> EqualChunkBfsClusters(const WeightedDigraph& g,
                                            size_t target) {
  const size_t n = g.NumNodes();
  const size_t cap = (n + target - 1) / target;
  std::vector<uint32_t> cluster_of(n, 0);
  std::vector<uint8_t> visited(n, 0);
  uint32_t cluster = 0;
  size_t in_cluster = 0;
  auto assign = [&](graph::NodeId node) {
    if (in_cluster >= cap) {
      ++cluster;
      in_cluster = 0;
    }
    cluster_of[node] = cluster;
    ++in_cluster;
  };
  std::deque<graph::NodeId> frontier;
  for (graph::NodeId seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    assign(seed);
    frontier.push_back(seed);
    while (!frontier.empty()) {
      const graph::NodeId node = frontier.front();
      frontier.pop_front();
      for (const graph::OutEdge& out : g.OutEdges(node)) {
        if (visited[out.to]) continue;
        visited[out.to] = 1;
        assign(out.to);
        frontier.push_back(out.to);
      }
    }
  }
  return cluster_of;
}

OptimizerOptions GoldenOptions(const votes::SyntheticWorkload& workload) {
  OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  options.encoder.is_variable = workload.EntityEdgePredicate();
  return options;
}

// Largest |a - b| over the variables of two encodings of the same votes,
// matched by edge (the two number their variables differently).
double MaxWeightDifference(const votes::EncodedProgram& adjoint,
                           const std::vector<double>& a,
                           const votes::EncodedProgram& oracle,
                           const std::vector<double>& b) {
  double max_diff = 0.0;
  for (size_t k = 0; k < a.size(); ++k) {
    const graph::EdgeId edge =
        adjoint.variables.EdgeOf(static_cast<math::VarId>(k));
    max_diff = std::max(max_diff,
                        std::abs(a[k] - b[*oracle.variables.Find(edge)]));
  }
  return max_diff;
}

// The golden workload solved through the adjoint vote program and through
// the unpruned signomial program: the same constraints, evaluated in
// different summation orders, must reach the same satisfied count and the
// same weights within 1e-6. The multi-vote batch (after the judgment
// filter) is solved in the reduced form MultiVoteSolve uses, each negative
// vote alone in the hard form SingleVoteSolve uses. The deviation form
// takes thousands of iterations on the batch and ends on a flat valley
// floor, so there its objectives must agree rather than its points.
TEST(LearningGoldenTest, AdjointAndSignomialSolvesAgree) {
  const votes::SyntheticWorkload workload = GoldenWorkload();
  OptimizerOptions options = GoldenOptions(workload);
  options.encoder.symbolic.min_path_mass = 0.0;
  const WeightedDigraph& g = workload.graph;
  const graph::CsrSnapshot snapshot(g);
  const votes::VoteEncoder encoder(&g, options.encoder);
  auto encode_both = [&](const std::vector<votes::Vote>& votes) {
    Result<votes::EncodedProgram> adjoint = votes::EncodeVoteProgram(
        g, snapshot.View(), options.encoder, votes);
    Result<votes::EncodedProgram> oracle = encoder.EncodeBatch(votes);
    EXPECT_TRUE(adjoint.ok()) << adjoint.status();
    EXPECT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(adjoint->variables.NumVariables(),
              oracle->variables.NumVariables());
    return std::make_pair(std::move(adjoint).value(),
                          std::move(oracle).value());
  };
  auto solver = [&](math::SgpFormulation formulation) {
    math::SgpSolverOptions sgp = options.sgp;
    sgp.formulation = formulation;
    return math::SgpSolver(sgp);
  };

  votes::JudgmentOptions judgment;
  judgment.eipd = options.encoder.symbolic.eipd;
  judgment.is_variable = options.encoder.is_variable;
  const std::vector<votes::Vote> batch =
      votes::JudgmentFilter(&g, snapshot.View(), judgment)
          .FilterVotes(workload.votes);
  ASSERT_GT(batch.size(), 4u);
  const auto [adjoint, oracle] = encode_both(batch);
  {
    const math::SgpSolver reduced =
        solver(math::SgpFormulation::kReducedSigmoid);
    const math::SgpSolution a = reduced.Solve(adjoint.problem);
    const math::SgpSolution b = reduced.Solve(oracle.problem);
    EXPECT_EQ(a.satisfied_constraints, b.satisfied_constraints);
    EXPECT_LE(MaxWeightDifference(adjoint, a.x, oracle, b.x), 1e-6);
  }
  {
    const math::SgpSolver deviation =
        solver(math::SgpFormulation::kDeviationVariables);
    const math::SgpSolution a = deviation.Solve(adjoint.problem);
    const math::SgpSolution b = deviation.Solve(oracle.problem);
    EXPECT_EQ(a.satisfied_constraints, b.satisfied_constraints);
    EXPECT_NEAR(a.objective, b.objective, 1e-6 * std::abs(b.objective));
  }

  const math::SgpSolver hard = solver(math::SgpFormulation::kHardConstraints);
  size_t solved = 0;
  for (const votes::Vote& vote : workload.votes) {
    if (vote.IsPositive()) continue;
    const auto [single, single_oracle] = encode_both({vote});
    const math::SgpSolution a = hard.Solve(single.problem);
    const math::SgpSolution b = hard.Solve(single_oracle.problem);
    EXPECT_EQ(a.satisfied_constraints, b.satisfied_constraints)
        << "vote " << vote.id;
    EXPECT_LE(MaxWeightDifference(single, a.x, single_oracle, b.x), 1e-6)
        << "vote " << vote.id;
    ++solved;
  }
  EXPECT_GT(solved, 4u);
}

TEST(LearningGoldenTest, OptimizerDigestIsPinned) {
  const votes::SyntheticWorkload workload = GoldenWorkload();
  const OptimizerOptions options = GoldenOptions(workload);

  uint32_t crc = 0;
  KgOptimizer optimizer(&workload.graph, options);
  Result<OptimizeReport> single = optimizer.SingleVoteSolve(workload.votes);
  ASSERT_TRUE(single.ok()) << single.status();
  crc = FoldWeights(single->optimized, crc);
  Result<OptimizeReport> multi = optimizer.MultiVoteSolve(workload.votes);
  ASSERT_TRUE(multi.ok()) << multi.status();
  crc = FoldReport(*multi, crc);
  Result<OptimizeReport> split = optimizer.SplitMergeSolve(workload.votes);
  ASSERT_TRUE(split.ok()) << split.status();
  ASSERT_GT(split->num_clusters, 1u);
  crc = FoldReport(*split, crc);

  // One online flush per strategy with only the edges whose source lies in
  // an even cluster of 8 equal BFS chunks variable, so that part of the
  // workload's variable edges are held constant.
  auto cluster_of = std::make_shared<const std::vector<uint32_t>>(
      EqualChunkBfsClusters(workload.graph, 8));
  for (FlushStrategy strategy :
       {FlushStrategy::kMultiVote, FlushStrategy::kSplitMerge}) {
    OnlineOptimizerOptions online_options;
    online_options.optimizer = options;
    online_options.optimizer.encoder.is_variable =
        [entity = options.encoder.is_variable, cluster_of](
            const WeightedDigraph& g, graph::EdgeId e) {
          return entity(g, e) && (*cluster_of)[g.edges()[e].from] % 2 == 0;
        };
    online_options.batch_size = 1000;
    online_options.strategy = strategy;
    OnlineKgOptimizer online(workload.graph, online_options);
    for (const votes::Vote& vote : workload.votes) {
      ASSERT_TRUE(online.IngestLogged(vote).ok());
    }
    Result<FlushReport> flush = online.Flush();
    ASSERT_TRUE(flush.ok()) << flush.status();
    ASSERT_TRUE(flush->epoch_published);
    crc = FoldCount(flush->constraints_satisfied,
                    FoldWeights(online.graph(), crc));
  }
  EXPECT_EQ(crc, 0xb1fc11cdu) << std::hex << "digest 0x" << crc;
}

// The golden workload streamed through the pipeline one vote per
// micro-batch, once per strategy: which micro-batches fail, the final
// weights and the counters a restart resumes from (applied, pending,
// dead-lettered, epoch number) are pinned, so any change to what a
// micro-batch solves or publishes moves the digest.
TEST(LearningGoldenTest, StreamedDigestIsPinned) {
  const votes::SyntheticWorkload workload = GoldenWorkload();

  uint32_t crc = 0;
  for (FlushStrategy strategy :
       {FlushStrategy::kMultiVote, FlushStrategy::kSplitMerge}) {
    OnlineOptimizerOptions online_options;
    online_options.optimizer = GoldenOptions(workload);
    online_options.batch_size = 1000;
    online_options.strategy = strategy;
    OnlineKgOptimizer online(workload.graph, online_options);
    StatusOr<std::unique_ptr<stream::StreamPipeline>> pipeline =
        stream::StreamPipeline::Create(&online, {}, nullptr);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    for (const votes::Vote& vote : workload.votes) {
      ASSERT_TRUE((*pipeline)->Offer(vote).ok());
      crc = FoldCount((*pipeline)->DrainOnce(1).ok(), crc);
    }
    EXPECT_GT(online.CurrentEpochNumber(), 1u);
    crc = FoldWeights(online.graph(), crc);
    const uint64_t counters[] = {online.TotalVotesApplied(),
                                 online.PendingVotes(),
                                 online.DeadLetters().size(),
                                 online.CurrentEpochNumber()};
    crc = Crc32c(counters, sizeof(counters), crc);
  }
  EXPECT_EQ(crc, 0x2dd4dfb8u) << std::hex << "digest 0x" << crc;
}

// Votes 4 and 5 of the golden workload are rejected by the judgment
// filter. Streamed one vote per micro-batch, or with votes 4-6 in one
// micro-batch beside the kept vote 6, they are counted the same way:
// settled (applied) by the flush that judged them, rejected once, never
// pending or dead-lettered, and no flush fails. Both orders fold the same
// weights.
TEST(LearningGoldenTest, RejectedVotesCountTheSameInAnyMicroBatch) {
  const votes::SyntheticWorkload workload = GoldenWorkload();
  ASSERT_GE(workload.votes.size(), 7u);
  telemetry::Counter* rejected =
      telemetry::MetricRegistry::Global().GetCounter("online.votes_rejected");
  for (FlushStrategy strategy :
       {FlushStrategy::kMultiVote, FlushStrategy::kSplitMerge}) {
    std::vector<double> weights[2];
    for (size_t together : {1, 3}) {
      SCOPED_TRACE(together == 1 ? "one vote per micro-batch"
                                 : "votes 4-6 in one micro-batch");
      OnlineOptimizerOptions online_options;
      online_options.optimizer = GoldenOptions(workload);
      online_options.batch_size = 1000;
      online_options.strategy = strategy;
      OnlineKgOptimizer online(workload.graph, online_options);
      StatusOr<std::unique_ptr<stream::StreamPipeline>> pipeline =
          stream::StreamPipeline::Create(&online, {}, nullptr);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status();
      const uint64_t rejected_before = rejected->Value();
      for (size_t i = 0; i < 7; ++i) {
        ASSERT_TRUE((*pipeline)->Offer(workload.votes[i]).ok());
        if (i >= 4 && i < 4 + together - 1) continue;
        StatusOr<size_t> drained = (*pipeline)->DrainOnce(together);
        ASSERT_TRUE(drained.ok()) << "vote " << i << ": " << drained.status();
      }
      EXPECT_EQ(online.TotalVotesApplied(), 7u);
      EXPECT_EQ(rejected->Value() - rejected_before, 2u);
      EXPECT_EQ((*pipeline)->GetStats().flush_failures, 0u);
      EXPECT_EQ(online.PendingVotes(), 0u);
      EXPECT_TRUE(online.DeadLetters().empty());
      for (const graph::Edge& edge : online.graph().edges()) {
        weights[together == 3].push_back(edge.weight);
      }
    }
    EXPECT_EQ(0, std::memcmp(weights[0].data(), weights[1].data(),
                             weights[0].size() * sizeof(double)));
  }
}

}  // namespace
}  // namespace kgov::core
