#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/kg_optimizer.h"
#include "core/online_optimizer.h"
#include "graph/graph.h"
#include "telemetry/metrics.h"

namespace kgov {
namespace {

using core::FlushReport;
using core::FlushStrategy;
using core::KgOptimizer;
using core::OnlineKgOptimizer;
using core::OnlineOptimizerOptions;
using core::OptimizeReport;
using core::OptimizerOptions;
using graph::WeightedDigraph;

// ---------------------------------------------------------------------------
// Harness semantics

TEST(FaultInjectionTest, DisarmedSiteNeverFires) {
  FaultInjector::Global().Reset();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FaultFires(FaultSite::kSolveNonConvergence));
  }
  EXPECT_EQ(FaultInjector::Global().Fires(FaultSite::kSolveNonConvergence),
            0);
}

TEST(FaultInjectionTest, ProbabilityOneFiresEveryHit) {
  ScopedFault fault(FaultSite::kNanGradient, {.probability = 1.0});
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(FaultFires(FaultSite::kNanGradient));
  }
  EXPECT_EQ(FaultInjector::Global().Hits(FaultSite::kNanGradient), 10);
  EXPECT_EQ(FaultInjector::Global().Fires(FaultSite::kNanGradient), 10);
}

TEST(FaultInjectionTest, MaxFiresCapsTheFaultBudget) {
  ScopedFault fault(FaultSite::kTaskFailure,
                    {.probability = 1.0, .max_fires = 2});
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    if (FaultFires(FaultSite::kTaskFailure)) ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(FaultInjector::Global().Hits(FaultSite::kTaskFailure), 8);
}

TEST(FaultInjectionTest, SkipHitsTargetsLaterHits) {
  ScopedFault fault(FaultSite::kSlowSolve,
                    {.probability = 1.0, .max_fires = 1, .skip_hits = 3});
  std::vector<bool> fires;
  for (int i = 0; i < 6; ++i) {
    fires.push_back(FaultFires(FaultSite::kSlowSolve));
  }
  EXPECT_EQ(fires, (std::vector<bool>{false, false, false, true, false,
                                      false}));
}

TEST(FaultInjectionTest, ScheduleReplaysExactlyUnderSameSeed) {
  FaultInjector& injector = FaultInjector::Global();
  auto pattern = [&injector](uint64_t seed) {
    injector.Reseed(seed);
    injector.Arm(FaultSite::kSolveNonConvergence, {.probability = 0.5});
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(injector.ShouldFire(FaultSite::kSolveNonConvergence));
    }
    injector.Disarm(FaultSite::kSolveNonConvergence);
    return fires;
  };
  std::vector<bool> a = pattern(42);
  EXPECT_EQ(a, pattern(42));          // identical replay
  EXPECT_NE(a, pattern(0xDEADBEEF));  // seed actually matters
  // A 0.5 schedule should fire neither never nor always.
  int fired = 0;
  for (bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 8);
  EXPECT_LT(fired, 56);
  injector.Reset();
}

TEST(FaultInjectionTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault(FaultSite::kNanGradient, {.probability = 1.0});
    EXPECT_TRUE(FaultFires(FaultSite::kNanGradient));
  }
  EXPECT_FALSE(FaultFires(FaultSite::kNanGradient));
}

TEST(FaultInjectionTest, StallInjectionSleepsOnce) {
  ScopedFault fault(
      FaultSite::kSlowSolve,
      {.probability = 1.0, .max_fires = 1, .sleep_seconds = 0.02});
  Timer timer;
  EXPECT_TRUE(MaybeInjectStall(FaultSite::kSlowSolve));
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  EXPECT_FALSE(MaybeInjectStall(FaultSite::kSlowSolve));  // budget spent
}

TEST(FaultInjectionTest, SiteNamesAreStable) {
  EXPECT_EQ(FaultSiteToString(FaultSite::kNanGradient), "NanGradient");
  EXPECT_EQ(FaultSiteToString(FaultSite::kGraphCorruption),
            "GraphCorruption");
}

TEST(FaultInjectionTest, InjectedTaskFailureIsolatesOneIteration) {
  ScopedFault fault(FaultSite::kTaskFailure,
                    {.probability = 1.0, .max_fires = 1});
  std::vector<char> failed;
  Status status = ParallelFor(
      nullptr, 4, [](size_t) {}, &failed);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("injected task failure"),
            std::string::npos);
  int failures = 0;
  for (char f : failed) failures += f ? 1 : 0;
  EXPECT_EQ(failures, 1);
}

// ---------------------------------------------------------------------------
// Pipeline acceptance scenarios
//
// Two disconnected five-node components; a vote against each component has
// disjoint edge sets, so affinity propagation splits them into separate
// clusters and fault isolation can be observed per cluster.

WeightedDigraph MakeTwoComponentGraph() {
  WeightedDigraph g(10);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(5, 6, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(5, 7, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(6, 8, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(7, 9, 1.0).ok());
  return g;
}

votes::Vote MakeComponentVote(graph::NodeId query, graph::NodeId loser,
                              graph::NodeId winner, uint32_t id) {
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(query, 1.0);
  vote.answer_list = {loser, winner};
  vote.best_answer = winner;
  return vote;
}

OptimizerOptions TwoClusterOptions() {
  OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length = 4;
  options.apply_judgment_filter = false;
  // A solve is never retried, so a single injected NaN fails its cluster.
  // With only two (zero-similarity) votes the median-preference heuristic
  // degenerates to a single cluster; an explicit positive preference makes
  // each vote its own exemplar so the test really exercises two clusters.
  options.ap.preference = 0.5;
  return options;
}

// Acceptance (a): a forced-NaN cluster solve still yields a successful
// batch with that cluster quarantined, and every surviving weight finite.
TEST(FaultPipelineTest, NanClusterIsolatedInSplitMerge) {
  WeightedDigraph g = MakeTwoComponentGraph();
  KgOptimizer optimizer(&g, TwoClusterOptions());
  // Sequential solve order is cluster 0 first; its first gradient
  // evaluation is poisoned, everything after runs clean.
  ScopedFault fault(FaultSite::kNanGradient,
                    {.probability = 1.0, .max_fires = 1});
  Result<OptimizeReport> report = optimizer.SplitMergeSolve(
      {MakeComponentVote(0, 3, 4, 1), MakeComponentVote(5, 8, 9, 2)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->num_clusters, 2u);
  ASSERT_EQ(report->failed_clusters.size(), 1u);
  EXPECT_TRUE(report->failed_clusters[0].status.IsNumericalError())
      << report->failed_clusters[0].status.ToString();
  ASSERT_EQ(report->quarantined_votes.size(), 1u);
  // The surviving cluster still applied its changes.
  EXPECT_FALSE(report->weight_changes.empty());
  for (graph::EdgeId e = 0; e < report->optimized.NumEdges(); ++e) {
    EXPECT_TRUE(std::isfinite(report->optimized.Weight(e))) << e;
  }
  EXPECT_TRUE(report->optimized.IsSubStochastic(1e-9));
}

TEST(FaultPipelineTest, TaskDeathQuarantinesItsCluster) {
  WeightedDigraph g = MakeTwoComponentGraph();
  KgOptimizer optimizer(&g, TwoClusterOptions());
  ScopedFault fault(FaultSite::kTaskFailure,
                    {.probability = 1.0, .max_fires = 1});
  Result<OptimizeReport> report = optimizer.SplitMergeSolve(
      {MakeComponentVote(0, 3, 4, 1), MakeComponentVote(5, 8, 9, 2)});
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->failed_clusters.size(), 1u);
  EXPECT_EQ(report->quarantined_votes.size(), 1u);
  EXPECT_EQ(report->failed_clusters[0].status.code(),
            StatusCode::kInternal);
}

// Acceptance (a), online variant, plus determinism under a fixed seed: two
// identical runs quarantine the same cluster and produce bitwise-identical
// surviving weights.
TEST(FaultPipelineTest, OnlineFlushQuarantinesNanClusterDeterministically) {
  auto run = []() {
    WeightedDigraph g = MakeTwoComponentGraph();
    OnlineOptimizerOptions options;
    options.batch_size = 10;
    options.strategy = FlushStrategy::kSplitMerge;
    options.optimizer = TwoClusterOptions();
    OnlineKgOptimizer online(g, options);
    ScopedFault fault(FaultSite::kNanGradient,
                      {.probability = 1.0, .max_fires = 1});
    EXPECT_TRUE(online.AddVote(MakeComponentVote(0, 3, 4, 1)).ok());
    EXPECT_TRUE(online.AddVote(MakeComponentVote(5, 8, 9, 2)).ok());
    Result<FlushReport> r = online.Flush();
    EXPECT_TRUE(r.ok()) << r.status();
    std::vector<double> weights;
    if (r.ok()) {
      EXPECT_EQ(r->votes_flushed, 1u);
      EXPECT_EQ(r->votes_quarantined, 1u);
      EXPECT_EQ(online.PendingVotes(), 1u);  // quarantined vote re-queued
      for (graph::EdgeId e = 0; e < online.graph().NumEdges(); ++e) {
        double w = online.graph().Weight(e);
        EXPECT_TRUE(std::isfinite(w)) << e;
        weights.push_back(w);
      }
    }
    return weights;
  };
  std::vector<double> first = run();
  std::vector<double> second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// A multi-vote solve that does not return OK fails its flush; the outer
// path is the only recovery: the batch is re-queued, dead-lettered after
// max_vote_attempts failed flushes, and applied once a solve succeeds. No
// epoch is published by a failed flush, and no vote is ever lost.
TEST(FaultPipelineTest, UnsolvedMultiVoteFlushRequeuesThenDeadLetters) {
  WeightedDigraph g = MakeTwoComponentGraph();
  OnlineOptimizerOptions options;
  options.batch_size = 10;
  options.strategy = FlushStrategy::kMultiVote;
  options.max_vote_attempts = 3;
  options.optimizer = TwoClusterOptions();
  OnlineKgOptimizer online(g, options);
  const std::shared_ptr<const graph::CsrSnapshot> serving =
      online.CurrentEpoch().snapshot;
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
  const uint64_t flush_failures0 =
      reg.GetCounter("online.flush_failures")->Value();
  const uint64_t dead_lettered0 =
      reg.GetCounter("online.dead_lettered")->Value();
  size_t offered = 0;
  auto offer = [&](graph::NodeId query, graph::NodeId loser,
                   graph::NodeId winner) {
    ++offered;
    ASSERT_TRUE(online
                    .AddVote(MakeComponentVote(query, loser, winner,
                                               static_cast<uint32_t>(offered)))
                    .ok());
  };
  auto expect_no_vote_lost = [&]() {
    EXPECT_EQ(online.TotalVotesApplied() + online.PendingVotes() +
                  online.DeadLetters().size(),
              offered);
  };

  offer(0, 3, 4);
  offer(5, 8, 9);
  {
    ScopedFault fault(FaultSite::kSolveNonConvergence, {.probability = 1.0});
    for (int attempt = 1; attempt <= 3; ++attempt) {
      if (attempt == 3) offer(0, 3, 4);  // joins the last failing batch
      Result<FlushReport> r = online.Flush();
      ASSERT_FALSE(r.ok());
      EXPECT_TRUE(r.status().IsNotConverged()) << r.status();
      EXPECT_TRUE(online.LastFlushStatus().IsNotConverged());
      EXPECT_EQ(online.CurrentEpochNumber(), 0u);
      EXPECT_EQ(online.CurrentEpoch().snapshot.get(), serving.get());
      EXPECT_EQ(online.TotalVotesApplied(), 0u);
      expect_no_vote_lost();
    }
    // The first two votes failed max_vote_attempts flushes; the third has
    // failed one and waits for the next.
    ASSERT_EQ(online.DeadLetters().size(), 2u);
    EXPECT_EQ(online.DeadLetters()[0].id, 1u);
    EXPECT_EQ(online.DeadLetters()[1].id, 2u);
    EXPECT_EQ(online.PendingVotes(), 1u);
    EXPECT_EQ(reg.GetCounter("online.flush_failures")->Value(),
              flush_failures0 + 3);
    EXPECT_EQ(reg.GetCounter("online.dead_lettered")->Value(),
              dead_lettered0 + 2);
  }

  Result<FlushReport> r = online.Flush();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->votes_flushed, 1u);
  EXPECT_TRUE(r->epoch_published);
  EXPECT_EQ(online.CurrentEpochNumber(), 1u);
  EXPECT_EQ(online.TotalVotesApplied(), 1u);
  EXPECT_EQ(online.PendingVotes(), 0u);
  expect_no_vote_lost();
}

// Acceptance (b): a corrupted update is rolled back; the serving snapshot
// and graph stay untouched and the batch is preserved for retry.
TEST(FaultPipelineTest, CorruptedUpdateRollsBackServingSnapshot) {
  WeightedDigraph g = MakeTwoComponentGraph();
  OnlineOptimizerOptions options;
  options.batch_size = 10;
  options.strategy = FlushStrategy::kMultiVote;
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.apply_judgment_filter = false;
  OnlineKgOptimizer online(g, options);

  std::shared_ptr<const graph::CsrSnapshot> serving =

      online.CurrentEpoch().snapshot;
  std::vector<double> before_weights;
  for (graph::EdgeId e = 0; e < online.graph().NumEdges(); ++e) {
    before_weights.push_back(online.graph().Weight(e));
  }

  ASSERT_TRUE(online.AddVote(MakeComponentVote(0, 3, 4, 1)).ok());
  {
    ScopedFault fault(FaultSite::kGraphCorruption,
                      {.probability = 1.0, .max_fires = 1});
    Result<FlushReport> r = online.Flush();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  // Rolled back: same snapshot object, same weights, vote preserved.
  EXPECT_EQ(online.CurrentEpoch().snapshot.get(), serving.get());
  for (graph::EdgeId e = 0; e < online.graph().NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(online.graph().Weight(e), before_weights[e]) << e;
  }
  EXPECT_EQ(online.RollbackCount(), 1u);
  EXPECT_EQ(online.PendingVotes(), 1u);
  EXPECT_EQ(online.TotalVotesApplied(), 0u);

  // With the fault gone the retry succeeds and the snapshot advances.
  Result<FlushReport> retry = online.Flush();
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->votes_flushed, 1u);
  EXPECT_NE(online.CurrentEpoch().snapshot.get(), serving.get());
  for (graph::EdgeId e = 0; e < online.graph().NumEdges(); ++e) {
    EXPECT_TRUE(std::isfinite(online.graph().Weight(e))) << e;
  }
}

}  // namespace
}  // namespace kgov
