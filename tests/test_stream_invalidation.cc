// The streaming cache-coherence property tests (the serving half of the
// streaming pipeline): after any sequence of micro-batch epoch swaps,
// every ranking a cache-enabled engine serves is bitwise identical to a
// cold recompute on the same epoch - under selective invalidation AND
// under the conservative full-flush fallback - and selective invalidation
// retains strictly more cached entries than a full flush when the change
// is localized.
//
// Fixture: K disconnected 5-node "pods" (each the canonical diamond the
// optimizer tests use). Votes target one pod at a time, so their bitwise
// weight changes stay inside that pod's clusters and the other pods'
// cached rankings remain provably valid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/online_optimizer.h"
#include "graph/csr.h"
#include "ppr/eipd_engine.h"
#include "serve/query_engine.h"
#include "stream/partition.h"
#include "stream/pipeline.h"

namespace kgov::serve {
namespace {

using core::OnlineKgOptimizer;
using core::OnlineOptimizerOptions;
using graph::WeightedDigraph;

constexpr size_t kPods = 8;
constexpr size_t kPodSize = 5;

WeightedDigraph MakePods(size_t pods) {
  WeightedDigraph g(pods * kPodSize);
  for (size_t p = 0; p < pods; ++p) {
    const graph::NodeId base = static_cast<graph::NodeId>(p * kPodSize);
    EXPECT_TRUE(g.AddEdge(base + 0, base + 1, 0.6).ok());
    EXPECT_TRUE(g.AddEdge(base + 0, base + 2, 0.4).ok());
    EXPECT_TRUE(g.AddEdge(base + 1, base + 3, 1.0).ok());
    EXPECT_TRUE(g.AddEdge(base + 2, base + 4, 1.0).ok());
  }
  return g;
}

std::vector<graph::NodeId> AllCandidates(size_t pods) {
  std::vector<graph::NodeId> candidates;
  for (size_t p = 0; p < pods; ++p) {
    const graph::NodeId base = static_cast<graph::NodeId>(p * kPodSize);
    candidates.push_back(base + 3);
    candidates.push_back(base + 4);
  }
  return candidates;
}

votes::Vote PodVote(size_t pod, graph::NodeId best_offset, uint32_t id) {
  const graph::NodeId base = static_cast<graph::NodeId>(pod * kPodSize);
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(base, 1.0);
  vote.answer_list = {base + 3, base + 4};
  vote.best_answer = base + best_offset;
  return vote;
}

/// One deterministic seed per pod (plus weight jitter) so the stream
/// covers every pod and repeats exactly.
std::vector<ppr::QuerySeed> PodStream(size_t pods, uint64_t rng_seed) {
  std::mt19937_64 rng(rng_seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::vector<ppr::QuerySeed> seeds;
  for (size_t p = 0; p < pods; ++p) {
    const graph::NodeId base = static_cast<graph::NodeId>(p * kPodSize);
    ppr::QuerySeed seed;
    seed.links.emplace_back(base, weight(rng));
    seed.links.emplace_back(base + 1, weight(rng));
    seed.Normalize();
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

OnlineOptimizerOptions StreamingOnlineOptions() {
  OnlineOptimizerOptions options;
  options.batch_size = 1000;  // the pipeline owns the flush cadence
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.apply_judgment_filter = false;
  options.strategy = core::FlushStrategy::kMultiVote;
  options.partition_clusters = kPods * kPodSize;  // fine-grained clusters
  return options;
}

QueryEngineOptions EngineOptions(bool cache, bool selective) {
  QueryEngineOptions options;
  options.eipd.max_length = 4;
  options.top_k = 4;
  options.num_threads = 2;
  options.enable_cache = cache;
  options.selective_invalidation = selective;
  return options;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdenticalAnswers(const std::vector<ppr::ScoredAnswer>& a,
                            const std::vector<ppr::ScoredAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "rank " << i;
    EXPECT_TRUE(BitwiseEqual(a[i].score, b[i].score))
        << "rank " << i << ": " << a[i].score << " vs " << b[i].score;
  }
}

/// Serves `stream` on both engines and requires bitwise-identical
/// rankings on the same epoch. Returns the epoch served.
uint64_t ServeAndCompare(QueryEngine& cached, QueryEngine& cold,
                         const std::vector<ppr::QuerySeed>& stream) {
  std::vector<StatusOr<RankedAnswers>> fresh = cold.SubmitBatch(stream);
  std::vector<StatusOr<RankedAnswers>> memo = cached.SubmitBatch(stream);
  uint64_t epoch = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(fresh[i].ok()) << fresh[i].status();
    EXPECT_TRUE(memo[i].ok()) << memo[i].status();
    if (!fresh[i].ok() || !memo[i].ok()) continue;
    EXPECT_EQ(fresh[i]->epoch, memo[i]->epoch) << "seed " << i;
    epoch = fresh[i]->epoch;
    ExpectIdenticalAnswers(fresh[i]->answers, memo[i]->answers);
  }
  return epoch;
}

/// The core property drill: run `rounds` streaming micro-batches (each
/// voting into one pseudo-randomly chosen pod), re-serving and comparing
/// the full stream after every swap.
void RunSwapProperty(QueryEngine& cached, QueryEngine& cold,
                     OnlineKgOptimizer& online,
                     stream::StreamPipeline& pipeline, int rounds) {
  const std::vector<ppr::QuerySeed> stream = PodStream(kPods, 0xD1CE);
  std::mt19937_64 rng(0xFEED);

  // Warm both engines (fills the cache) and establish baseline equality.
  ASSERT_EQ(ServeAndCompare(cached, cold, stream), 0u);

  uint32_t vote_id = 0;
  for (int round = 0; round < rounds; ++round) {
    const size_t pod = rng() % kPods;
    ASSERT_TRUE(
        pipeline.Offer(PodVote(pod, round % 2 == 0 ? 4 : 3, vote_id++))
            .ok());
    ASSERT_TRUE(pipeline.Offer(PodVote(pod, 4, vote_id++)).ok());
    StatusOr<size_t> drained = pipeline.DrainOnce(16);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    ASSERT_EQ(drained.value(), 2u);

    // Post-swap: every served entry - cached hit or recompute - must be
    // bitwise identical to the cold engine's fresh propagation.
    const uint64_t epoch = ServeAndCompare(cached, cold, stream);
    EXPECT_EQ(epoch, online.CurrentEpochNumber());
  }
}

TEST(StreamInvalidationProperty, SelectiveSwapsServeBitwiseIdentical) {
  WeightedDigraph g = MakePods(kPods);
  OnlineKgOptimizer online(g, StreamingOnlineOptions());
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  const std::vector<graph::NodeId> candidates = AllCandidates(kPods);

  auto cached_or = QueryEngine::Create(
      &online, &candidates, EngineOptions(true, /*selective=*/true));
  auto cold_or = QueryEngine::Create(&online, &candidates,
                                     EngineOptions(false, true));
  ASSERT_TRUE(cached_or.ok()) << cached_or.status();
  ASSERT_TRUE(cold_or.ok()) << cold_or.status();

  RunSwapProperty(**cached_or, **cold_or, online, **pipeline_or, 8);

  // The selective path was actually exercised: swaps swept selectively,
  // kept untouched pods cached (hits), and the cold engine never hit.
  ShardedResultCache::Stats stats = (*cached_or)->CacheStats();
  EXPECT_GT(stats.selective_sweeps, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ((*cold_or)->CacheStats().hits, 0u);
}

TEST(StreamInvalidationProperty, FullFlushFallbackServesBitwiseIdentical) {
  // Same property with selective invalidation disabled: every swap takes
  // the conservative full-flush path and correctness must not depend on
  // the delta bookkeeping.
  WeightedDigraph g = MakePods(kPods);
  OnlineKgOptimizer online(g, StreamingOnlineOptions());
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  const std::vector<graph::NodeId> candidates = AllCandidates(kPods);

  auto cached_or = QueryEngine::Create(
      &online, &candidates, EngineOptions(true, /*selective=*/false));
  auto cold_or = QueryEngine::Create(&online, &candidates,
                                     EngineOptions(false, true));
  ASSERT_TRUE(cached_or.ok()) << cached_or.status();
  ASSERT_TRUE(cold_or.ok()) << cold_or.status();

  RunSwapProperty(**cached_or, **cold_or, online, **pipeline_or, 8);

  ShardedResultCache::Stats stats = (*cached_or)->CacheStats();
  EXPECT_GT(stats.full_sweeps, 0u);
  EXPECT_EQ(stats.selective_sweeps, 0u);
}

TEST(StreamInvalidationProperty, TinyThresholdForcesFullFlushFallback) {
  // The other fallback trigger: a delta larger than half the partition.
  // With one cluster, that threshold is half a cluster, so every
  // non-empty delta exceeds it. The engine must degrade to full flushes
  // (never taking the selective sweep) and stay bitwise-correct.
  WeightedDigraph g = MakePods(kPods);
  OnlineOptimizerOptions one_cluster = StreamingOnlineOptions();
  one_cluster.partition_clusters = 1;
  OnlineKgOptimizer online(g, one_cluster);
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  const std::vector<graph::NodeId> candidates = AllCandidates(kPods);

  auto cached_or = QueryEngine::Create(&online, &candidates,
                                       EngineOptions(true, true));
  auto cold_or = QueryEngine::Create(&online, &candidates,
                                     EngineOptions(false, true));
  ASSERT_TRUE(cached_or.ok()) << cached_or.status();
  ASSERT_TRUE(cold_or.ok()) << cold_or.status();

  RunSwapProperty(**cached_or, **cold_or, online, **pipeline_or, 4);

  ShardedResultCache::Stats stats = (*cached_or)->CacheStats();
  EXPECT_GT(stats.full_sweeps, 0u);
  EXPECT_EQ(stats.selective_sweeps, 0u);
}

TEST(StreamInvalidationProperty, SelectiveRetainsStrictlyMoreThanFullFlush) {
  // The hit-rate-retention claim, deterministically: votes into pod 0
  // only. A selective engine keeps every other pod's entry across the
  // swap; a full-flush engine starts cold. Both serve identical bits.
  WeightedDigraph g = MakePods(kPods);
  OnlineKgOptimizer online(g, StreamingOnlineOptions());
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  stream::StreamPipeline& pipeline = **pipeline_or;
  const std::vector<graph::NodeId> candidates = AllCandidates(kPods);

  auto selective_or = QueryEngine::Create(&online, &candidates,
                                          EngineOptions(true, true));
  auto full_or = QueryEngine::Create(&online, &candidates,
                                     EngineOptions(true, false));
  auto cold_or = QueryEngine::Create(&online, &candidates,
                                     EngineOptions(false, true));
  ASSERT_TRUE(selective_or.ok());
  ASSERT_TRUE(full_or.ok());
  ASSERT_TRUE(cold_or.ok());
  QueryEngine& selective = **selective_or;
  QueryEngine& full = **full_or;
  QueryEngine& cold = **cold_or;

  const std::vector<ppr::QuerySeed> stream = PodStream(kPods, 0xABBA);
  // Warm both caches on epoch 0.
  (void)selective.SubmitBatch(stream);
  (void)full.SubmitBatch(stream);

  // One localized micro-batch: pod 0 only.
  ASSERT_TRUE(pipeline.Offer(PodVote(0, 4, 1)).ok());
  ASSERT_TRUE(pipeline.DrainOnce(16).ok());
  ASSERT_EQ(online.CurrentEpochNumber(), 1u);

  const ShardedResultCache::Stats selective_before = selective.CacheStats();
  const ShardedResultCache::Stats full_before = full.CacheStats();
  ASSERT_EQ(ServeAndCompare(selective, cold, stream), 1u);
  std::vector<StatusOr<RankedAnswers>> full_pass = full.SubmitBatch(stream);
  for (const auto& r : full_pass) ASSERT_TRUE(r.ok());

  const uint64_t selective_hits =
      selective.CacheStats().hits - selective_before.hits;
  const uint64_t full_hits = full.CacheStats().hits - full_before.hits;
  // Full flush: the post-swap pass is all misses. Selective: every pod
  // except the voted one is still cached.
  EXPECT_EQ(full_hits, 0u);
  EXPECT_GE(selective_hits, kPods - 1);
  EXPECT_GT(selective.CacheStats().selective_sweeps, 0u);
  EXPECT_GT(full.CacheStats().full_sweeps, 0u);
}

// ------------------------------------------------- dependency depth
//
// A cached ranking depends on the clusters of the nodes whose out-edges
// the propagation reads: those within max_length - 2 positive-weight hops
// of a positive-weight seed link. Fixture (seed at node 0, engine L = 4,
// so nodes 0-2 are read and node 3 sits exactly L - 1 hops out):
//
//   0 -> 1 (0.7), 0 -> 11 (0.3)
//   1 -> 2 (1.0)
//   2 -> 3 (0.5), 2 -> 4 (0.3), 2 -> 5 (0.2)
//   3 -> 6 (0.6), 3 -> 7 (0.4)
//   8 -> 9 (0.6), 8 -> 10 (0.4)      (reached only by a zero-weight link)
//
// Every node is its own partition cluster, and each epoch below comes
// from one vote flushed with only one node's out-edges variable, so
// exactly that node's out-edge weights change.

constexpr size_t kChainNodes = 12;

WeightedDigraph MakeChain() {
  WeightedDigraph g(kChainNodes);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(0, 11, 0.3).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 0.3).ok());
  EXPECT_TRUE(g.AddEdge(2, 5, 0.2).ok());
  EXPECT_TRUE(g.AddEdge(3, 6, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(3, 7, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(8, 9, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(8, 10, 0.4).ok());
  return g;
}

/// The chain optimizer's encoder.is_variable admits an edge iff its source
/// lies in the partition cluster `*scope` names; ChangeOutEdgesOf points
/// it at the node whose out-edges it changes.
OnlineOptimizerOptions ChainOnlineOptions(
    std::shared_ptr<const uint32_t> scope) {
  OnlineOptimizerOptions options = StreamingOnlineOptions();
  options.partition_clusters = kChainNodes;  // one cluster per node
  Result<stream::GraphPartition> built =
      stream::GraphPartition::Build(MakeChain(), kChainNodes);
  EXPECT_TRUE(built.ok()) << built.status();
  auto partition =
      std::make_shared<const stream::GraphPartition>(std::move(built).value());
  options.optimizer.encoder.is_variable =
      [partition, scope](const WeightedDigraph& g, graph::EdgeId e) {
        return partition->ClusterOf(g.edges()[e].from) == *scope;
      };
  return options;
}

/// Flushes one vote at `node` (answers: the two given out-neighbours,
/// the currently weaker one voted best) with only `node`'s cluster
/// variable, and requires that exactly that cluster changed.
void ChangeOutEdgesOf(OnlineKgOptimizer& online, uint32_t& scope,
                      graph::NodeId node, graph::NodeId stronger,
                      graph::NodeId weaker) {
  votes::Vote vote;
  vote.id = node;
  vote.query.links.emplace_back(node, 1.0);
  vote.answer_list = {stronger, weaker};
  vote.best_answer = weaker;
  ASSERT_TRUE(online.IngestLogged(std::move(vote)).ok());
  const uint32_t cluster = online.partition()->ClusterOf(node);
  scope = cluster;
  Result<core::FlushReport> report = online.Flush();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->epoch_published);
  ASSERT_EQ(report->changed_clusters, std::vector<uint32_t>{cluster});
}

struct ChainEngines {
  std::vector<graph::NodeId> candidates;
  std::unique_ptr<QueryEngine> cached;
  std::unique_ptr<QueryEngine> cold;
};

ChainEngines MakeChainEngines(const OnlineKgOptimizer& online,
                              int max_length) {
  ChainEngines engines;
  for (graph::NodeId v = 0; v < kChainNodes; ++v) {
    engines.candidates.push_back(v);
  }
  QueryEngineOptions cached = EngineOptions(true, true);
  cached.eipd.max_length = max_length;
  QueryEngineOptions cold = EngineOptions(false, true);
  cold.eipd.max_length = max_length;
  auto cached_or = QueryEngine::Create(&online, &engines.candidates, cached);
  auto cold_or = QueryEngine::Create(&online, &engines.candidates, cold);
  EXPECT_TRUE(cached_or.ok()) << cached_or.status();
  EXPECT_TRUE(cold_or.ok()) << cold_or.status();
  if (cached_or.ok()) engines.cached = std::move(cached_or).value();
  if (cold_or.ok()) engines.cold = std::move(cold_or).value();
  return engines;
}

ppr::QuerySeed ChainSeed() {
  ppr::QuerySeed seed;
  seed.links.emplace_back(0, 1.0);
  return seed;
}

/// Serves `seed` on both engines at the optimizer's current epoch and
/// requires bitwise-identical rankings; returns whether the cached engine
/// answered from its cache.
bool ServedFromCacheAndExact(ChainEngines& engines,
                             const OnlineKgOptimizer& online,
                             const ppr::QuerySeed& seed) {
  StatusOr<RankedAnswers> memo = engines.cached->Submit(seed);
  StatusOr<RankedAnswers> fresh = engines.cold->Submit(seed);
  EXPECT_TRUE(memo.ok()) << memo.status();
  EXPECT_TRUE(fresh.ok()) << fresh.status();
  if (!memo.ok() || !fresh.ok()) return false;
  EXPECT_EQ(memo->epoch, online.CurrentEpochNumber());
  EXPECT_EQ(fresh->epoch, online.CurrentEpochNumber());
  ExpectIdenticalAnswers(fresh->answers, memo->answers);
  return memo->from_cache;
}

TEST(StreamInvalidationProperty, ChangeBeyondReadDepthKeepsEntry) {
  // Node 3 is L - 1 = 3 hops from the seed: the walk reaches it at the
  // last level and never reads its out-edges.
  auto scope = std::make_shared<uint32_t>(0);
  OnlineKgOptimizer online(MakeChain(), ChainOnlineOptions(scope));
  ChainEngines engines = MakeChainEngines(online, /*max_length=*/4);
  ASSERT_NE(engines.cached, nullptr);
  ASSERT_NE(engines.cold, nullptr);
  const ppr::QuerySeed seed = ChainSeed();
  EXPECT_FALSE(ServedFromCacheAndExact(engines, online, seed));

  ChangeOutEdgesOf(online, *scope, 3, 6, 7);
  EXPECT_TRUE(ServedFromCacheAndExact(engines, online, seed));
  EXPECT_EQ(engines.cached->CacheStats().invalidations, 0u);
}

TEST(StreamInvalidationProperty, ChangeWithinReadDepthInvalidatesEntry) {
  // Node 2 is L - 2 = 2 hops out: the last level reads its out-edges.
  auto scope = std::make_shared<uint32_t>(0);
  OnlineKgOptimizer online(MakeChain(), ChainOnlineOptions(scope));
  ChainEngines engines = MakeChainEngines(online, /*max_length=*/4);
  ASSERT_NE(engines.cached, nullptr);
  ASSERT_NE(engines.cold, nullptr);
  const ppr::QuerySeed seed = ChainSeed();
  EXPECT_FALSE(ServedFromCacheAndExact(engines, online, seed));

  ChangeOutEdgesOf(online, *scope, 2, 4, 5);
  EXPECT_FALSE(ServedFromCacheAndExact(engines, online, seed));
  EXPECT_EQ(engines.cached->CacheStats().invalidations, 1u);
}

TEST(StreamInvalidationProperty, SingleLevelWalkDependsOnNoEdge) {
  // At max_length = 1 the score is the seed mass alone: no edge is read,
  // so even a change to the seed node's own out-edges keeps the entry.
  auto scope = std::make_shared<uint32_t>(0);
  OnlineKgOptimizer online(MakeChain(), ChainOnlineOptions(scope));
  ChainEngines engines = MakeChainEngines(online, /*max_length=*/1);
  ASSERT_NE(engines.cached, nullptr);
  ASSERT_NE(engines.cold, nullptr);
  const ppr::QuerySeed seed = ChainSeed();
  EXPECT_FALSE(ServedFromCacheAndExact(engines, online, seed));

  ChangeOutEdgesOf(online, *scope, 0, 1, 11);
  EXPECT_TRUE(ServedFromCacheAndExact(engines, online, seed));
  ChangeOutEdgesOf(online, *scope, 2, 4, 5);
  EXPECT_TRUE(ServedFromCacheAndExact(engines, online, seed));
}

TEST(StreamInvalidationProperty, ZeroWeightSeedLinkIsNotADependency) {
  // The kernel never seeds a zero-weight link, so node 8's out-edges are
  // never read and a change to them keeps the entry.
  auto scope = std::make_shared<uint32_t>(0);
  OnlineKgOptimizer online(MakeChain(), ChainOnlineOptions(scope));
  ChainEngines engines = MakeChainEngines(online, /*max_length=*/4);
  ASSERT_NE(engines.cached, nullptr);
  ASSERT_NE(engines.cold, nullptr);
  ppr::QuerySeed seed = ChainSeed();
  seed.links.emplace_back(8, 0.0);
  EXPECT_FALSE(ServedFromCacheAndExact(engines, online, seed));

  ChangeOutEdgesOf(online, *scope, 8, 9, 10);
  EXPECT_TRUE(ServedFromCacheAndExact(engines, online, seed));
}

// ------------------------------------------ frontier-log dependency set
//
// DependencySet reads a cache entry's dependencies off its propagation's
// own frontier log. The oracle is the walk the engine ran before: the
// nodes within max_length - 2 positive-weight hops of a positive-weight
// seed link, collected breadth-first.

std::set<graph::NodeId> WalkedNodes(graph::GraphView view,
                                    const ppr::QuerySeed& seed,
                                    int max_length) {
  std::set<graph::NodeId> visited;
  std::vector<graph::NodeId> frontier;
  if (max_length < 2) return visited;
  for (const auto& [node, weight] : seed.links) {
    if (weight > 0.0 && visited.insert(node).second) frontier.push_back(node);
  }
  for (int hop = 0; hop < max_length - 2; ++hop) {
    std::vector<graph::NodeId> next;
    for (graph::NodeId u : frontier) {
      for (const auto* it = view.begin(u); it != view.end(u); ++it) {
        if (it->weight > 0.0 && visited.insert(it->to).second) {
          next.push_back(it->to);
        }
      }
    }
    frontier.swap(next);
  }
  return visited;
}

std::vector<uint32_t> WalkedClusters(graph::GraphView view,
                                     const ppr::QuerySeed& seed,
                                     int max_length,
                                     const stream::GraphPartition& partition) {
  std::set<uint32_t> clusters;
  for (graph::NodeId v : WalkedNodes(view, seed, max_length)) {
    clusters.insert(partition.ClusterOf(v));
  }
  return {clusters.begin(), clusters.end()};
}

std::vector<uint32_t> AllClusters(const stream::GraphPartition& partition) {
  std::vector<uint32_t> all(partition.num_clusters());
  std::iota(all.begin(), all.end(), 0u);
  return all;
}

// Sparse random digraph with self-loops, 2-cycles and zero-weight edges.
WeightedDigraph SparseRandomGraph(Rng& rng, size_t n) {
  WeightedDigraph g(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    const size_t degree = rng.NextIndex(3);
    for (size_t k = 0; k < degree; ++k) {
      const graph::NodeId v = static_cast<graph::NodeId>(rng.NextIndex(n));
      const double w = rng.NextIndex(5) == 0 ? 0.0 : rng.Uniform(0.05, 1.0);
      (void)g.AddEdge(u, v, w);  // duplicates are rejected; fine
    }
    if (rng.NextIndex(6) == 0) (void)g.AddEdge(u, u, rng.Uniform(0.05, 1.0));
    if (rng.NextIndex(6) == 0) {
      const graph::NodeId v = static_cast<graph::NodeId>(rng.NextIndex(n));
      (void)g.AddEdge(u, v, 0.5);
      (void)g.AddEdge(v, u, 0.5);
    }
  }
  return g;
}

// One to three links, some of them zero-weight.
ppr::QuerySeed RandomLinks(Rng& rng, size_t n) {
  ppr::QuerySeed seed;
  const size_t links = 1 + rng.NextIndex(3);
  for (size_t k = 0; k < links; ++k) {
    const double w = rng.NextIndex(4) == 0 ? 0.0 : rng.Uniform(0.1, 1.0);
    seed.links.emplace_back(static_cast<graph::NodeId>(rng.NextIndex(n)), w);
  }
  return seed;
}

TEST(DependencySetTest, FrontierLogMatchesWalkedBallOnRandomGraphs) {
  Rng rng(0xDE95E7);
  size_t compared = 0;
  size_t capped = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 30 + rng.NextIndex(60);
    const WeightedDigraph g = SparseRandomGraph(rng, n);
    const graph::CsrSnapshot csr(g);
    // One cluster per node makes cluster equality node-set equality; the
    // coarse partition exercises the node -> cluster mapping.
    for (size_t target : {n, size_t{7}}) {
      Result<stream::GraphPartition> partition =
          stream::GraphPartition::Build(g, target);
      ASSERT_TRUE(partition.ok()) << partition.status().ToString();
      for (int max_length = 1; max_length <= 5; ++max_length) {
        ppr::EipdOptions options;
        options.max_length = max_length;
        // Multi-lane groups: each lane's log must stand alone.
        const size_t count = 1 + rng.NextIndex(4);
        std::vector<ppr::QuerySeed> seeds;
        std::vector<const ppr::QuerySeed*> roots;
        for (size_t b = 0; b < count; ++b) seeds.push_back(RandomLinks(rng, n));
        for (const ppr::QuerySeed& seed : seeds) roots.push_back(&seed);
        std::vector<ppr::PropagationWorkspace> lanes(count);
        ppr::internal::PropagatePhi(ppr::internal::ViewAdjacency{csr.View()},
                                    roots, options, lanes.data());
        for (size_t b = 0; b < count; ++b) {
          const ppr::PropagationWorkspace& lane = lanes[b];
          const std::vector<uint32_t> got = DependencySet(lane, *partition);
          if (lane.expanded >= n) {
            ++capped;
            EXPECT_EQ(got, AllClusters(*partition));
            continue;
          }
          ++compared;
          const std::set<graph::NodeId> logged(
              lane.touched.begin(),
              lane.touched.begin() + static_cast<ptrdiff_t>(lane.expanded));
          EXPECT_EQ(logged, WalkedNodes(csr.View(), seeds[b], max_length))
              << "trial " << trial << " L=" << max_length << " lane " << b;
          EXPECT_EQ(got, WalkedClusters(csr.View(), seeds[b], max_length,
                                        *partition))
              << "trial " << trial << " L=" << max_length << " lane " << b;
        }
      }
    }
  }
  // The random suite must exercise the exact path, not only the cap.
  EXPECT_GT(compared, 500u);
  EXPECT_LT(capped, compared / 4);
}

TEST(DependencySetTest, CappedLogDependsOnEveryCluster) {
  // A complete digraph on 6 nodes: the level frontiers are 1, 6 and 6
  // nodes, so at L = 4 the log holds 13 > 6 entries before the last level
  // and stops at its cap of |V|.
  constexpr size_t kNodes = 6;
  WeightedDigraph g(kNodes);
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    for (graph::NodeId v = 0; v < kNodes; ++v) {
      ASSERT_TRUE(g.AddEdge(u, v, 1.0 / kNodes).ok());
    }
  }
  const graph::CsrSnapshot csr(g);
  Result<stream::GraphPartition> partition =
      stream::GraphPartition::Build(g, kNodes);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  ppr::EipdOptions options;
  options.max_length = 4;
  ppr::EipdEngine engine(csr.View(), options);
  ppr::PropagationWorkspace lane;
  ASSERT_TRUE(engine.Propagate(ppr::QuerySeed::UniformOver({0}), &lane).ok());
  ASSERT_EQ(lane.expanded, kNodes);
  EXPECT_EQ(DependencySet(lane, *partition), AllClusters(*partition));

  // At L = 2 only the seed node's out-edges were read.
  options.max_length = 2;
  ppr::EipdEngine shallow(csr.View(), options);
  ASSERT_TRUE(
      shallow.Propagate(ppr::QuerySeed::UniformOver({0}), &lane).ok());
  ASSERT_EQ(lane.expanded, 1u);
  EXPECT_EQ(DependencySet(lane, *partition),
            std::vector<uint32_t>{partition->ClusterOf(0)});
}

}  // namespace
}  // namespace kgov::serve
