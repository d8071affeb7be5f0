// Multi-root propagation (EipdEngine::RankMulti / PropagatePhi lanes).
//
// The serving-path batcher folds same-cluster queries into one
// level-interleaved pass; its load-bearing contract is that every lane is
// BITWISE identical to the solo propagation of the same seed (a cache
// entry written by a batched lane must satisfy the same memcmp check a
// solo entry does). These tests compare raw score bits, not tolerances.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "telemetry/metrics.h"

namespace kgov::ppr {
namespace {

using graph::CsrSnapshot;
using graph::WeightedDigraph;

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdenticalRanking(const std::vector<ScoredAnswer>& a,
                            const std::vector<ScoredAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "rank " << i;
    EXPECT_TRUE(BitwiseEqual(a[i].score, b[i].score))
        << "rank " << i << ": " << a[i].score << " vs " << b[i].score;
  }
}

class RankMultiEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankMultiEquivalence, EveryLaneBitwiseMatchesSoloRank) {
  Rng rng(GetParam());
  Result<WeightedDigraph> g = graph::ErdosRenyi(40, 200, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);

  std::vector<graph::NodeId> candidates;
  for (graph::NodeId v = 0; v < 40; v += 3) candidates.push_back(v);

  std::vector<QuerySeed> seeds;
  for (int i = 0; i < 5 && seeds.size() < 4; ++i) {
    QuerySeed seed = QuerySeed::FromNode(
        *g, static_cast<graph::NodeId>(rng.NextIndex(40)));
    if (!seed.empty()) seeds.push_back(std::move(seed));
  }
  if (seeds.empty()) GTEST_SKIP();
  // Duplicate roots must be allowed (a serving group gives each admitted
  // miss its own lane, duplicates included) and identical per lane.
  seeds.push_back(seeds.front());

  for (int length : {1, 3, 5}) {
    EipdEngine engine(snap.View(), {.max_length = length});
    StatusOr<std::vector<std::vector<ScoredAnswer>>> multi =
        engine.RankMulti(seeds, candidates, 6);
    ASSERT_TRUE(multi.ok()) << multi.status();
    ASSERT_EQ(multi->size(), seeds.size());
    for (size_t b = 0; b < seeds.size(); ++b) {
      StatusOr<std::vector<ScoredAnswer>> solo =
          engine.Rank(seeds[b], candidates, 6);
      ASSERT_TRUE(solo.ok()) << solo.status();
      ExpectIdenticalRanking(*solo, (*multi)[b]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankMultiEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RankMultiTest, FullPhiVectorsBitwiseMatchSoloPropagation) {
  Rng rng(7);
  Result<WeightedDigraph> g = graph::ErdosRenyi(30, 150, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  graph::GraphView view = snap.View();

  EipdOptions options;
  options.max_length = 4;

  std::vector<QuerySeed> seeds;
  for (graph::NodeId v : {0, 5, 11}) {
    QuerySeed seed = QuerySeed::FromNode(*g, v);
    if (!seed.empty()) seeds.push_back(std::move(seed));
  }
  if (seeds.empty()) GTEST_SKIP();

  std::vector<const QuerySeed*> roots;
  for (const QuerySeed& seed : seeds) roots.push_back(&seed);
  std::vector<PropagationWorkspace> multi_ws(roots.size());
  internal::PropagatePhi(internal::ViewAdjacency{view}, roots, options,
                         multi_ws.data());

  PropagationWorkspace solo_ws;
  for (size_t b = 0; b < seeds.size(); ++b) {
    internal::PropagatePhi(internal::ViewAdjacency{view}, {&roots[b], 1},
                           options, &solo_ws);
    ASSERT_EQ(solo_ws.phi.size(), multi_ws[b].phi.size());
    EXPECT_EQ(std::memcmp(solo_ws.phi.data(), multi_ws[b].phi.data(),
                          solo_ws.phi.size() * sizeof(double)),
              0)
        << "lane " << b << " diverged from the solo propagation";
  }
}

TEST(RankMultiTest, EmptySeedListReturnsEmptyAndSingleSeedMatchesRank) {
  Rng rng(11);
  Result<WeightedDigraph> g = graph::ErdosRenyi(20, 80, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  EipdEngine engine(snap.View(), {.max_length = 3});
  std::vector<graph::NodeId> candidates{1, 4, 7, 10};

  StatusOr<std::vector<std::vector<ScoredAnswer>>> none =
      engine.RankMulti({}, candidates, 3);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());

  QuerySeed seed = QuerySeed::FromNode(*g, 0);
  if (seed.empty()) GTEST_SKIP();
  StatusOr<std::vector<std::vector<ScoredAnswer>>> one =
      engine.RankMulti({seed}, candidates, 3);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->size(), 1u);
  StatusOr<std::vector<ScoredAnswer>> solo = engine.Rank(seed, candidates, 3);
  ASSERT_TRUE(solo.ok()) << solo.status();
  ExpectIdenticalRanking(*solo, one->front());
}

TEST(RankMultiTest, WorkspaceLanesGrowButNeverShrinkAcrossCalls) {
  Rng rng(13);
  Result<WeightedDigraph> g = graph::ErdosRenyi(20, 80, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  EipdEngine engine(snap.View(), {.max_length = 3});
  std::vector<graph::NodeId> candidates{1, 4, 7, 10};

  std::vector<QuerySeed> seeds;
  for (graph::NodeId v = 0; v < 20 && seeds.size() < 4; ++v) {
    QuerySeed seed = QuerySeed::FromNode(*g, v);
    if (!seed.empty()) seeds.push_back(std::move(seed));
  }
  if (seeds.size() < 4) GTEST_SKIP();

  std::vector<PropagationWorkspace> ws;
  ASSERT_TRUE(engine.RankMulti(seeds, candidates, 3, &ws).ok());
  EXPECT_EQ(ws.size(), 4u);

  // A smaller batch reuses the first lanes in place (steady-state batched
  // serving allocates nothing per pass).
  std::vector<QuerySeed> two(seeds.begin(), seeds.begin() + 2);
  StatusOr<std::vector<std::vector<ScoredAnswer>>> again =
      engine.RankMulti(two, candidates, 3, &ws);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(ws.size(), 4u);
  StatusOr<std::vector<ScoredAnswer>> solo = engine.Rank(two[1], candidates, 3);
  ASSERT_TRUE(solo.ok());
  ExpectIdenticalRanking(*solo, (*again)[1]);
}

TEST(RankMultiTest, InvalidSeedFailsTheBatchBeforePropagating) {
  Rng rng(17);
  Result<WeightedDigraph> g = graph::ErdosRenyi(20, 80, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  EipdEngine engine(snap.View(), {.max_length = 3});

  QuerySeed good = QuerySeed::FromNode(*g, 0);
  QuerySeed bad;
  bad.links.emplace_back(999, 1.0);
  StatusOr<std::vector<std::vector<ScoredAnswer>>> multi =
      engine.RankMulti({good, bad}, {1, 4}, 2);
  ASSERT_FALSE(multi.ok());
  EXPECT_EQ(multi.status().code(), StatusCode::kInvalidArgument);
}

TEST(RankMultiTest, TelemetryCountsPassesAndRoots) {
  Rng rng(19);
  Result<WeightedDigraph> g = graph::ErdosRenyi(20, 80, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  EipdEngine engine(snap.View(), {.max_length = 3});

  std::vector<QuerySeed> seeds;
  for (graph::NodeId v = 0; v < 20 && seeds.size() < 3; ++v) {
    QuerySeed seed = QuerySeed::FromNode(*g, v);
    if (!seed.empty()) seeds.push_back(std::move(seed));
  }
  if (seeds.size() < 3) GTEST_SKIP();

  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
  const uint64_t passes_before =
      reg.GetCounter("serving.eipd.multi_passes")->Value();
  const uint64_t roots_before =
      reg.GetCounter("serving.eipd.multi_roots")->Value();
  ASSERT_TRUE(engine.RankMulti(seeds, {1, 4, 7}, 2).ok());
  EXPECT_EQ(reg.GetCounter("serving.eipd.multi_passes")->Value(),
            passes_before + 1);
  EXPECT_EQ(reg.GetCounter("serving.eipd.multi_roots")->Value(),
            roots_before + seeds.size());
}

}  // namespace
}  // namespace kgov::ppr
