// The streaming cache-coherence property tests (the serving half of the
// streaming pipeline): after any sequence of micro-batch epoch swaps,
// every ranking a cache-enabled engine serves - miss or hit - is bitwise
// identical to a cold recompute on the same epoch, and a published epoch
// drops the entries computed before it.
//
// Fixture: K disconnected 5-node "pods" (each the canonical diamond the
// optimizer tests use). Votes target one pod at a time.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/online_optimizer.h"
#include "serve/query_engine.h"
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
  return options;
}

QueryEngineOptions EngineOptions(bool cache) {
  QueryEngineOptions options;
  options.eipd.max_length = 4;
  options.top_k = 4;
  options.num_threads = 2;
  options.enable_cache = cache;
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

/// Serves `stream` on both engines, the cached one twice (the second pass
/// all hits), and requires bitwise-identical rankings on the same epoch.
/// Returns the epoch served.
uint64_t ServeAndCompare(QueryEngine& cached, QueryEngine& cold,
                         const std::vector<ppr::QuerySeed>& stream) {
  std::vector<StatusOr<RankedAnswers>> fresh = cold.SubmitBatch(stream);
  uint64_t epoch = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<StatusOr<RankedAnswers>> memo = cached.SubmitBatch(stream);
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_TRUE(fresh[i].ok()) << fresh[i].status();
      EXPECT_TRUE(memo[i].ok()) << memo[i].status();
      if (!fresh[i].ok() || !memo[i].ok()) continue;
      EXPECT_EQ(fresh[i]->epoch, memo[i]->epoch) << "seed " << i;
      if (pass == 1) {
        EXPECT_TRUE(memo[i]->from_cache) << "seed " << i;
      }
      epoch = fresh[i]->epoch;
      ExpectIdenticalAnswers(fresh[i]->answers, memo[i]->answers);
    }
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

    // Post-swap: every served entry - recompute or cached hit - must be
    // bitwise identical to the cold engine's fresh propagation.
    const uint64_t epoch = ServeAndCompare(cached, cold, stream);
    EXPECT_EQ(epoch, online.CurrentEpochNumber());
  }
}

TEST(StreamInvalidationProperty, FullFlushFallbackServesBitwiseIdentical) {
  // The full flush, once the fallback, is now every swap's only policy.
  WeightedDigraph g = MakePods(kPods);
  OnlineKgOptimizer online(g, StreamingOnlineOptions());
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  const std::vector<graph::NodeId> candidates = AllCandidates(kPods);

  auto cached_or =
      QueryEngine::Create(&online, &candidates, EngineOptions(true));
  auto cold_or =
      QueryEngine::Create(&online, &candidates, EngineOptions(false));
  ASSERT_TRUE(cached_or.ok()) << cached_or.status();
  ASSERT_TRUE(cold_or.ok()) << cold_or.status();

  RunSwapProperty(**cached_or, **cold_or, online, **pipeline_or, 8);

  // Every published epoch dropped all kPods entries, so the first pass
  // after it missed; every other pass hit.
  const uint64_t epochs = online.CurrentEpochNumber();
  ASSERT_GT(epochs, 0u);
  ShardedResultCache::Stats stats = (*cached_or)->CacheStats();
  EXPECT_EQ(stats.invalidations, epochs * kPods);
  EXPECT_EQ(stats.hits, (2 * 8 + 1 - epochs) * kPods);
  EXPECT_EQ((*cold_or)->CacheStats().hits, 0u);
}

TEST(StreamInvalidationProperty, SelectiveSwapsServeBitwiseIdentical) {
  // Swaps whose change is confined to pod 0: the entries of the seven
  // untouched pods are dropped too (a published epoch keeps nothing),
  // and every re-served ranking is bitwise identical to a cold serve.
  WeightedDigraph g = MakePods(kPods);
  OnlineKgOptimizer online(g, StreamingOnlineOptions());
  auto pipeline_or = stream::StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  stream::StreamPipeline& pipeline = **pipeline_or;
  const std::vector<graph::NodeId> candidates = AllCandidates(kPods);

  auto cached_or =
      QueryEngine::Create(&online, &candidates, EngineOptions(true));
  auto cold_or =
      QueryEngine::Create(&online, &candidates, EngineOptions(false));
  ASSERT_TRUE(cached_or.ok()) << cached_or.status();
  ASSERT_TRUE(cold_or.ok()) << cold_or.status();
  QueryEngine& cached = **cached_or;
  QueryEngine& cold = **cold_or;

  const std::vector<ppr::QuerySeed> stream = PodStream(kPods, 0xABBA);
  ASSERT_EQ(ServeAndCompare(cached, cold, stream), 0u);

  for (uint32_t round = 0; round < 4; ++round) {
    const WeightedDigraph before = online.graph();
    const uint64_t epoch_before = online.CurrentEpochNumber();
    ASSERT_TRUE(
        pipeline.Offer(PodVote(0, round % 2 == 0 ? 4 : 3, round)).ok());
    StatusOr<size_t> drained = pipeline.DrainOnce(16);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    ASSERT_EQ(drained.value(), 1u);
    const bool published = online.CurrentEpochNumber() > epoch_before;
    if (round == 0) {
      ASSERT_TRUE(published);
    }

    for (size_t e = 0; e < before.NumEdges(); ++e) {
      const double a = before.edges()[e].weight;
      const double b = online.graph().edges()[e].weight;
      if (BitwiseEqual(a, b)) continue;
      EXPECT_LT(before.edges()[e].from, kPodSize) << "edge " << e;
    }

    // A published epoch leaves only the second pass's kPods hits; an
    // unpublished one leaves both passes hitting.
    const uint64_t hits_before = cached.CacheStats().hits;
    EXPECT_EQ(ServeAndCompare(cached, cold, stream),
              online.CurrentEpochNumber());
    EXPECT_EQ(cached.CacheStats().hits - hits_before,
              (published ? 1u : 2u) * kPods)
        << "round " << round;
  }
  EXPECT_EQ(cached.CacheStats().invalidations,
            online.CurrentEpochNumber() * kPods);
  EXPECT_EQ(cold.CacheStats().hits, 0u);
}

// ------------------------------------------------- a one-node change
//
// Fixture (seed at node 0, engine L = 4, so nodes 0-2 have their
// out-edges read):
//
//   0 -> 1 (0.7), 0 -> 11 (0.3)
//   1 -> 2 (1.0)
//   2 -> 3 (0.5), 2 -> 4 (0.3), 2 -> 5 (0.2)
//   3 -> 6 (0.6), 3 -> 7 (0.4)
//   8 -> 9 (0.6), 8 -> 10 (0.4)      (unreachable from the seed)
//
// Each epoch below comes from one vote flushed with only one node's
// out-edges variable, so exactly that node's out-edge weights change.

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
/// is the node `*scope` names; ChangeOutEdgesOf points it at the node
/// whose out-edges it changes.
OnlineOptimizerOptions ChainOnlineOptions(
    std::shared_ptr<const graph::NodeId> scope) {
  OnlineOptimizerOptions options = StreamingOnlineOptions();
  options.optimizer.encoder.is_variable =
      [scope](const WeightedDigraph& g, graph::EdgeId e) {
        return g.edges()[e].from == *scope;
      };
  return options;
}

/// Flushes one vote at `node` (answers: the two given out-neighbours,
/// the currently weaker one voted best) with only `node`'s out-edges
/// variable, and requires that some of them, and no other edge, changed.
void ChangeOutEdgesOf(OnlineKgOptimizer& online, graph::NodeId& scope,
                      graph::NodeId node, graph::NodeId stronger,
                      graph::NodeId weaker) {
  votes::Vote vote;
  vote.id = node;
  vote.query.links.emplace_back(node, 1.0);
  vote.answer_list = {stronger, weaker};
  vote.best_answer = weaker;
  ASSERT_TRUE(online.IngestLogged(std::move(vote)).ok());
  scope = node;
  const WeightedDigraph before = online.graph();
  Result<core::FlushReport> report = online.Flush();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->epoch_published);
  size_t changed = 0;
  for (size_t e = 0; e < before.NumEdges(); ++e) {
    const double a = before.edges()[e].weight;
    const double b = online.graph().edges()[e].weight;
    if (std::memcmp(&a, &b, sizeof(double)) == 0) continue;
    ++changed;
    EXPECT_EQ(before.edges()[e].from, node) << "edge " << e;
  }
  EXPECT_GT(changed, 0u);
}

struct ChainEngines {
  std::vector<graph::NodeId> candidates;
  std::unique_ptr<QueryEngine> cached;
  std::unique_ptr<QueryEngine> cold;
};

ChainEngines MakeChainEngines(const OnlineKgOptimizer& online) {
  ChainEngines engines;
  for (graph::NodeId v = 0; v < kChainNodes; ++v) {
    engines.candidates.push_back(v);
  }
  auto cached_or =
      QueryEngine::Create(&online, &engines.candidates, EngineOptions(true));
  auto cold_or =
      QueryEngine::Create(&online, &engines.candidates, EngineOptions(false));
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

TEST(StreamInvalidationProperty, ChangeWithinReadDepthInvalidatesEntry) {
  // Node 2 is L - 2 = 2 hops out: the last level reads its out-edges.
  auto scope = std::make_shared<graph::NodeId>(0);
  OnlineKgOptimizer online(MakeChain(), ChainOnlineOptions(scope));
  ChainEngines engines = MakeChainEngines(online);
  ASSERT_NE(engines.cached, nullptr);
  ASSERT_NE(engines.cold, nullptr);
  const ppr::QuerySeed seed = ChainSeed();
  EXPECT_FALSE(ServedFromCacheAndExact(engines, online, seed));

  ChangeOutEdgesOf(online, *scope, 2, 4, 5);
  EXPECT_FALSE(ServedFromCacheAndExact(engines, online, seed));
  EXPECT_EQ(engines.cached->CacheStats().invalidations, 1u);
}

}  // namespace
}  // namespace kgov::serve
