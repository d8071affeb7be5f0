#include "ppr/eipd_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "common/crc32.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "ppr/eipd_adjoint.h"
#include "ppr/ppr.h"
#include "telemetry/metrics.h"

namespace kgov::ppr {
namespace {

using graph::CsrSnapshot;
using graph::WeightedDigraph;

// Small hand-checkable graph:
//   0 -> 1 (0.5), 0 -> 2 (0.5), 1 -> 3 (1.0), 2 -> 4 (0.6), 2 -> 1 (0.4)
// Nodes 3 and 4 are answers (no out-edges).
WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(2, 1, 0.4).ok());
  return g;
}

QuerySeed SeedAt(graph::NodeId node) {
  QuerySeed seed;
  seed.links.emplace_back(node, 1.0);
  return seed;
}

// One-shot Phi(seed, answer) on a live graph through the checked engine.
double Similarity(const WeightedDigraph& g, const QuerySeed& seed,
                  graph::NodeId answer, EipdOptions options = {}) {
  CsrSnapshot snap(g);
  EipdEngine engine(snap.View(), options);
  StatusOr<std::vector<double>> scores = engine.Scores(seed, {answer});
  EXPECT_TRUE(scores.ok()) << scores.status().ToString();
  return scores.value()[0];
}

// Phi at trial weights goes through the adjoint: with every edge a
// variable (the identity index), x holds one weight per EdgeId, starting
// at the graph's own.
struct TrialWeights {
  explicit TrialWeights(const WeightedDigraph& g)
      : var_of_edge(g.NumEdges()), x(g.NumEdges()) {
    std::iota(var_of_edge.begin(), var_of_edge.end(), 0);
    for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) x[e] = g.Weight(e);
  }
  std::vector<int32_t> var_of_edge;
  std::vector<double> x;
};

TEST(EipdTest, HandComputedSimilarity) {
  WeightedDigraph g = MakeFixture();
  const double c = 0.15;
  EipdOptions options;
  options.max_length = 4;
  options.restart = c;
  QuerySeed seed = SeedAt(0);

  // Walks to 3: q->0->1->3 (len 3, P=0.5) and q->0->2->1->3 (len 4, P=0.2).
  double expected3 = c * (0.5 * std::pow(1 - c, 3) + 0.2 * std::pow(1 - c, 4));
  // Walks to 4: q->0->2->4 (len 3, P=0.3).
  double expected4 = c * 0.3 * std::pow(1 - c, 3);
  EXPECT_NEAR(Similarity(g, seed, 3, options), expected3, 1e-12);
  EXPECT_NEAR(Similarity(g, seed, 4, options), expected4, 1e-12);
}

TEST(EipdTest, PruningDropsLongWalks) {
  WeightedDigraph g = MakeFixture();
  const double c = 0.15;
  EipdOptions options;
  options.max_length = 3;  // drops the len-4 walk to node 3
  options.restart = c;
  double expected3 = c * 0.5 * std::pow(1 - c, 3);
  EXPECT_NEAR(Similarity(g, SeedAt(0), 3, options), expected3, 1e-12);
}

TEST(EipdTest, UnreachableAnswerIsZero) {
  WeightedDigraph g = MakeFixture();
  // Node 0 is unreachable from node 3 (3 has no out-edges).
  EXPECT_DOUBLE_EQ(Similarity(g, SeedAt(3), 0), 0.0);
}

TEST(EipdTest, ScoresMatchesIndividual) {
  WeightedDigraph g = MakeFixture();
  CsrSnapshot snap(g);
  EipdEngine engine(snap.View());
  QuerySeed seed = SeedAt(0);
  StatusOr<std::vector<double>> many = engine.Scores(seed, {1, 2, 3, 4});
  ASSERT_TRUE(many.ok());
  EXPECT_NEAR((*many)[0], Similarity(g, seed, 1), 1e-15);
  EXPECT_NEAR((*many)[1], Similarity(g, seed, 2), 1e-15);
  EXPECT_NEAR((*many)[2], Similarity(g, seed, 3), 1e-15);
  EXPECT_NEAR((*many)[3], Similarity(g, seed, 4), 1e-15);
}

TEST(EipdTest, MultiLinkSeedIsWeightedSum) {
  WeightedDigraph g = MakeFixture();
  QuerySeed mix;
  mix.links.emplace_back(1, 0.4);
  mix.links.emplace_back(2, 0.6);
  double expected = 0.4 * Similarity(g, SeedAt(1), 3) +
                    0.6 * Similarity(g, SeedAt(2), 3);
  EXPECT_NEAR(Similarity(g, mix, 3), expected, 1e-14);
}

TEST(EipdTest, OverridesChangeScores) {
  WeightedDigraph g = MakeFixture();
  CsrSnapshot snap(g);
  graph::EdgeId e02 = *g.FindEdge(0, 2);
  TrialWeights trial(g);
  trial.x[e02] = 0.0;
  const graph::NodeId answers[] = {3, 4};
  EipdAdjoint adjoint(snap.View(), {}, trial.var_of_edge.data(), answers);
  AdjointWorkspace ws;
  adjoint.Forward(SeedAt(0), trial.x.data(), &ws);
  // Blocking 0->2 kills all walks to 4 and the len-4 walk to 3.
  const double c = 0.15;
  EXPECT_NEAR(ws.lane.phi[3], c * 0.5 * std::pow(1 - c, 3), 1e-12);
  EXPECT_DOUBLE_EQ(ws.lane.phi[4], 0.0);
  // The graph itself must be untouched.
  EXPECT_DOUBLE_EQ(g.Weight(e02), 0.5);
}

TEST(EipdTest, RankSortsByScore) {
  WeightedDigraph g = MakeFixture();
  CsrSnapshot snap(g);
  EipdEngine engine(snap.View());
  StatusOr<std::vector<ScoredAnswer>> ranked =
      engine.Rank(SeedAt(0), {3, 4}, 10);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 2u);
  EXPECT_EQ((*ranked)[0].node, 3u);  // higher score per hand computation
  EXPECT_EQ((*ranked)[1].node, 4u);
  EXPECT_GT((*ranked)[0].score, (*ranked)[1].score);
}

TEST(EipdTest, RankTruncatesToK) {
  WeightedDigraph g = MakeFixture();
  CsrSnapshot snap(g);
  EipdEngine engine(snap.View());
  StatusOr<std::vector<ScoredAnswer>> ranked =
      engine.Rank(SeedAt(0), {1, 2, 3, 4}, 2);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), 2u);
}

TEST(EipdTest, RankTieBreaksByNodeId) {
  WeightedDigraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  CsrSnapshot snap(g);
  EipdEngine engine(snap.View());
  StatusOr<std::vector<ScoredAnswer>> ranked =
      engine.Rank(SeedAt(0), {2, 1}, 5);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 2u);
  EXPECT_EQ((*ranked)[0].node, 1u);
  EXPECT_EQ((*ranked)[1].node, 2u);
}

// Oracle for the threshold top-k: TopKByScore keeps exactly the first k
// entries of a full sort by descending score, ties by ascending id. The
// score vectors are dominated by exact ties, as in serving: most
// candidates score an exact 0.0 because no walk reaches them, some -0.0,
// which ties with +0.0 and keeps its own sign bit. Every trial also ranks
// under a `scored` mask that marks every candidate, and checks that an
// unmarked candidate is rejected by its first index.
TEST(EipdTest, TopKMatchesFullSortOracle) {
  std::mt19937_64 rng(0x70CC);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t num_nodes = 64 + rng() % 512;
    std::vector<double> phi(num_nodes);
    for (double& score : phi) {
      const uint64_t draw = rng() % 10;
      if (draw < 6) {
        score = 0.0;
      } else if (draw < 7) {
        score = -0.0;
      } else if (draw < 9) {
        score = 0.125 * static_cast<double>(1 + rng() % 4);
      } else {
        score = std::ldexp(static_cast<double>(rng() % 1000), -12);
      }
    }
    // Drawn with replacement, so some candidates repeat.
    const size_t n = 2 + rng() % (num_nodes - 1);
    std::vector<graph::NodeId> candidates(n);
    std::vector<char> scored(num_nodes, 0);
    for (graph::NodeId& node : candidates) {
      node = static_cast<graph::NodeId>(rng() % num_nodes);
      scored[node] = 1;
    }
    std::vector<ScoredAnswer> oracle;
    for (graph::NodeId node : candidates) {
      oracle.push_back(ScoredAnswer{node, phi[node]});
    }
    std::sort(oracle.begin(), oracle.end(),
              [](const ScoredAnswer& a, const ScoredAnswer& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.node < b.node;
              });

    for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{20}, n - 1, n,
                     n + 5}) {
      const std::vector<char>* const masks[] = {nullptr, &scored};
      for (const std::vector<char>* mask : masks) {
        StatusOr<std::vector<ScoredAnswer>> ranked =
            TopKByScore(phi, candidates, k, mask);
        ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
        ASSERT_EQ(ranked->size(), std::min(k, n)) << "trial " << trial;
        for (size_t i = 0; i < ranked->size(); ++i) {
          EXPECT_EQ((*ranked)[i].node, oracle[i].node)
              << "trial " << trial << " k " << k << " rank " << i;
          EXPECT_EQ(std::memcmp(&(*ranked)[i].score, &oracle[i].score,
                                sizeof(double)),
                    0)
              << "trial " << trial << " k " << k << " rank " << i;
        }
      }
    }

    // Unmark one candidate: every k rejects the first index naming it.
    const size_t victim = rng() % n;
    std::vector<char> partial = scored;
    partial[candidates[victim]] = 0;
    const size_t first = static_cast<size_t>(
        std::find(candidates.begin(), candidates.end(), candidates[victim]) -
        candidates.begin());
    const std::string want = "candidates[" + std::to_string(first) + "] = " +
                             std::to_string(candidates[victim]) + " ";
    for (size_t k : {size_t{0}, size_t{2}, n}) {
      StatusOr<std::vector<ScoredAnswer>> rejected =
          TopKByScore(phi, candidates, k, &partial);
      ASSERT_FALSE(rejected.ok()) << "trial " << trial << " k " << k;
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(rejected.status().message().find(want), std::string::npos)
          << rejected.status().ToString();
    }
  }
}

TEST(EipdTest, SnapshotServesWhileGraphEvolves) {
  // The serving pattern: freeze, mutate the live graph, keep serving old
  // scores until the next freeze.
  WeightedDigraph g(3);
  graph::EdgeId e01 = *g.AddEdge(0, 1, 0.5);
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  CsrSnapshot before(g);
  EipdEngine engine(before.View());
  QuerySeed seed;
  seed.links.emplace_back(0, 1.0);
  double score_before = engine.Scores(seed, {1}).value()[0];

  g.SetWeight(e01, 0.05);
  EXPECT_DOUBLE_EQ(engine.Scores(seed, {1}).value()[0], score_before);

  CsrSnapshot after(g);
  EipdEngine engine_after(after.View());
  EXPECT_LT(engine_after.Scores(seed, {1}).value()[0], score_before);
}

bool BitwiseEqualVectors(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- The branchless frontier append against a push_back reference. ---
//
// AdvanceLane writes every pushed head and advances its cursor only when
// the head's `next` entry was zero. This is the append it replaced, kept
// here as the reference: it must give the same frontier, in the same
// order, at every level, including the duplicate a head gets when m * w
// underflows to zero on an edge into it.
template <typename Adjacency>
void PushBackAdvance(const Adjacency& adj, PropagationWorkspace* ws) {
  std::vector<double>& next = ws->next;
  ws->next_frontier.clear();
  for (graph::NodeId u : ws->frontier) {
    const double m = ws->mass[u];
    adj.ForEachOut(u, [&](graph::NodeId to, double w) {
      if (w <= 0.0) return;
      if (next[to] == 0.0) ws->next_frontier.push_back(to);
      next[to] += m * w;
    });
    ws->mass[u] = 0.0;
  }
  ws->mass.swap(ws->next);
  ws->frontier.swap(ws->next_frontier);
}

// PropagatePhi's level loop with `advance` in place of AdvanceLane; the
// frontier after each advance is appended to `levels`.
template <typename Advance>
void DriveLane(const internal::ViewAdjacency& adj, const QuerySeed& seed,
               const EipdOptions& options, Advance advance,
               PropagationWorkspace* ws,
               std::vector<std::vector<graph::NodeId>>* levels) {
  const double c = options.restart;
  internal::SeedLane(adj, seed, ws);
  double decay = c * (1.0 - c);
  for (int len = 1; len < options.max_length; ++len) {
    internal::AbsorbLane(ws, decay);
    advance(adj, ws);
    levels->push_back(ws->frontier);
    decay *= 1.0 - c;
  }
  internal::AbsorbLane(ws, decay);
}

// Runs `seed` through the kernel and through the reference; returns true
// when some frontier held a node twice.
bool ExpectAdvanceMatchesPushBack(const WeightedDigraph& g,
                                  const QuerySeed& seed, int max_length) {
  CsrSnapshot snap(g);
  const internal::ViewAdjacency adj{snap.View()};
  EipdOptions options;
  options.max_length = max_length;
  PropagationWorkspace kernel, reference;
  std::vector<std::vector<graph::NodeId>> kernel_levels, reference_levels;
  DriveLane(adj, seed, options,
            [](const internal::ViewAdjacency& a, PropagationWorkspace* ws) {
              internal::AdvanceLane(a, ws);
            },
            &kernel, &kernel_levels);
  DriveLane(adj, seed, options,
            [](const internal::ViewAdjacency& a, PropagationWorkspace* ws) {
              PushBackAdvance(a, ws);
            },
            &reference, &reference_levels);
  EXPECT_EQ(kernel_levels, reference_levels);

  // The driver itself, on a workspace that served another query first.
  PropagationWorkspace lane;
  const QuerySeed warmup = SeedAt(0);
  internal::PropagatePhi(adj, warmup, options, &lane);
  internal::PropagatePhi(adj, seed, options, &lane);
  for (const PropagationWorkspace* ws : {&kernel, &lane}) {
    EXPECT_EQ(ws->touched, reference.touched);
    EXPECT_TRUE(BitwiseEqualVectors(ws->phi, reference.phi));
  }
  bool duplicate = false;
  for (std::vector<graph::NodeId> level : reference_levels) {
    std::sort(level.begin(), level.end());
    duplicate |= std::adjacent_find(level.begin(), level.end()) != level.end();
  }
  return duplicate;
}

TEST(EipdTest, BranchlessAppendMatchesPushBackOnRandomGraphs) {
  for (uint64_t trial = 0; trial < 30; ++trial) {
    Rng rng(700 + trial);
    const size_t n = 8 + rng.NextIndex(40);
    WeightedDigraph g(n);
    for (graph::NodeId u = 0; u < n; ++u) {
      // Self-loops, 2-cycles and zero weights all occur.
      for (size_t k = 0, d = rng.NextIndex(5); k < d; ++k) {
        const graph::NodeId v = static_cast<graph::NodeId>(rng.NextIndex(n));
        const double w = rng.NextIndex(6) == 0 ? 0.0 : rng.Uniform(0.01, 1.0);
        (void)g.AddEdge(u, v, w);
      }
    }
    QuerySeed seed;
    for (size_t k = 0, links = 1 + rng.NextIndex(4); k < links; ++k) {
      seed.links.emplace_back(static_cast<graph::NodeId>(rng.NextIndex(n)),
                              rng.Uniform(0.1, 1.0));
    }
    for (int length = 1; length <= 6; ++length) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " L " +
                   std::to_string(length));
      ExpectAdvanceMatchesPushBack(g, seed, length);
    }
  }
}

// Subnormal weights: two paths of mass 1e-200 each meet node 3 through
// edges of weight 1e-200, so both adds underflow to zero and node 3 is
// appended twice; its duplicate then pushes node 4 twice as well.
TEST(EipdTest, BranchlessAppendKeepsUnderflowDuplicates) {
  WeightedDigraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1e-200).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1e-200).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 1e-200).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1e-200).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(3, 0, 0.5).ok());
  for (int length = 3; length <= 5; ++length) {
    SCOPED_TRACE("L " + std::to_string(length));
    EXPECT_TRUE(ExpectAdvanceMatchesPushBack(g, SeedAt(0), length));
  }
}

// A random digraph with self-loops, 2-cycles and zero-weight edges, plus
// one node with an out-edge but no in-edge (unreachable from any seed that
// does not name it).
WeightedDigraph RandomKernelGraph(Rng& rng, size_t n) {
  WeightedDigraph g(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (size_t k = 0, d = rng.NextIndex(5); k < d; ++k) {
      const graph::NodeId v = static_cast<graph::NodeId>(rng.NextIndex(n));
      const double w = rng.NextIndex(6) == 0 ? 0.0 : rng.Uniform(0.01, 1.0);
      (void)g.AddEdge(u, v, w);
    }
  }
  const graph::NodeId unreachable = g.AddNode();
  EXPECT_TRUE(g.AddEdge(unreachable, 0, 0.5).ok());
  return g;
}

// Seeds never name the unreachable node (the last one).
QuerySeed RandomKernelSeed(Rng& rng, size_t n) {
  QuerySeed seed;
  for (size_t k = 0, links = 1 + rng.NextIndex(3); k < links; ++k) {
    seed.links.emplace_back(static_cast<graph::NodeId>(rng.NextIndex(n)),
                            rng.Uniform(0.1, 1.0));
  }
  return seed;
}

void ExpectSameRanking(const std::vector<ScoredAnswer>& want,
                       const std::vector<ScoredAnswer>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].node, got[i].node) << "rank " << i;
    EXPECT_EQ(std::memcmp(&want[i].score, &got[i].score, sizeof(double)), 0)
        << "rank " << i << ": " << want[i].score << " vs " << got[i].score;
  }
}

// The answer index changes which edges the last hop walks, never what an
// answer scores: Rank and Scores match an engine without the set bit for
// bit, for every k up to past the answer count, on one workspace shared
// with the full engine. A non-answer keeps only the first L - 1 levels.
TEST(EipdTest, AnswerIndexedRankIsBitwiseFullRank) {
  for (uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(9100 + trial);
    const size_t n = 8 + rng.NextIndex(40);
    const WeightedDigraph g = RandomKernelGraph(rng, n);
    const graph::NodeId unreachable = static_cast<graph::NodeId>(n);
    std::vector<graph::NodeId> answers;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (rng.NextIndex(3) == 0) answers.push_back(v);
    }
    answers.push_back(unreachable);
    std::vector<char> is_answer(g.NumNodes(), 0);
    for (graph::NodeId a : answers) is_answer[a] = 1;
    const QuerySeed seed = RandomKernelSeed(rng, n);
    CsrSnapshot snap(g);
    for (int length = 1; length <= 5; ++length) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " L " +
                   std::to_string(length));
      const EipdOptions options{.max_length = length};
      const EipdEngine full(snap.View(), options);
      const EipdEngine indexed(snap.View(), options, answers);
      PropagationWorkspace ws;
      for (size_t k : {size_t{1}, size_t{3}, answers.size(),
                       answers.size() + 4}) {
        StatusOr<std::vector<ScoredAnswer>> want =
            full.Rank(seed, answers, k, &ws);
        StatusOr<std::vector<ScoredAnswer>> got =
            indexed.Rank(seed, answers, k, &ws);
        ASSERT_TRUE(want.ok() && got.ok());
        ExpectSameRanking(*want, *got);
      }
      StatusOr<std::vector<double>> want_scores =
          full.Scores(seed, answers, &ws);
      StatusOr<std::vector<double>> got_scores =
          indexed.Scores(seed, answers, &ws);
      ASSERT_TRUE(want_scores.ok() && got_scores.ok());
      EXPECT_TRUE(BitwiseEqualVectors(*want_scores, *got_scores));
      EXPECT_EQ(got_scores->back(), 0.0);  // the unreachable answer

      // The last hop walked only the answer slots: off the answers, the
      // workspace holds the (L - 1)-level Phi.
      if (length == 1) continue;
      ASSERT_TRUE(indexed.Rank(seed, answers, 1, &ws).ok());
      StatusOr<std::vector<double>> shorter =
          EipdEngine(snap.View(), {.max_length = length - 1}).Propagate(seed);
      ASSERT_TRUE(shorter.ok());
      for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
        if (is_answer[v]) continue;
        EXPECT_EQ(std::memcmp(&ws.phi[v], &(*shorter)[v], sizeof(double)), 0)
            << "node " << v << ": " << ws.phi[v] << " vs " << (*shorter)[v];
      }
    }
  }
}

TEST(EipdTest, IndexedRankRejectsACandidateOutsideTheAnswerSet) {
  CsrSnapshot snap(MakeFixture());
  const EipdEngine engine(snap.View(), {}, std::vector<graph::NodeId>{3, 4});
  ASSERT_TRUE(engine.Rank(SeedAt(0), {4, 3}, 2).ok());

  StatusOr<std::vector<ScoredAnswer>> ranked =
      engine.Rank(SeedAt(0), {3, 1}, 2);
  ASSERT_FALSE(ranked.ok());
  EXPECT_EQ(ranked.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ranked.status().message().find("candidates[1] = 1"),
            std::string::npos)
      << ranked.status();

  StatusOr<std::vector<double>> scores = engine.Scores(SeedAt(0), {2});
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(scores.status().message().find("answers[0] = 2"),
            std::string::npos)
      << scores.status();
}

// Propagate promises every node's Phi, so an answer set changes nothing.
TEST(EipdTest, IndexedPropagateIsFullPropagate) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(9300 + trial);
    const size_t n = 8 + rng.NextIndex(40);
    const WeightedDigraph g = RandomKernelGraph(rng, n);
    const std::vector<graph::NodeId> answers = {
        static_cast<graph::NodeId>(rng.NextIndex(n))};
    const QuerySeed seed = RandomKernelSeed(rng, n);
    CsrSnapshot snap(g);
    for (int length = 1; length <= 5; ++length) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " L " +
                   std::to_string(length));
      const EipdOptions options{.max_length = length};
      StatusOr<std::vector<double>> want =
          EipdEngine(snap.View(), options).Propagate(seed);
      StatusOr<std::vector<double>> got =
          EipdEngine(snap.View(), options, answers).Propagate(seed);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_TRUE(BitwiseEqualVectors(*want, *got));
    }
  }
}

// The serving epochs of one graph differ in weights only, so engines over
// them share one answer index, built on the first: each ranks bitwise as
// an engine that indexes its own snapshot, whatever the weights (zeros
// included, which the index never looks at).
TEST(EipdTest, SharedAnswerIndexRanksEveryWeighting) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(9500 + trial);
    const size_t n = 8 + rng.NextIndex(40);
    WeightedDigraph g = RandomKernelGraph(rng, n);
    std::vector<graph::NodeId> answers;
    for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng.NextIndex(3) == 0) answers.push_back(v);
    }
    if (answers.empty()) answers.push_back(0);
    const QuerySeed seed = RandomKernelSeed(rng, n);
    const EipdOptions options{.max_length = 1 + static_cast<int>(trial % 5)};
    const CsrSnapshot first(g);
    const auto shared = std::make_shared<const internal::TargetSlots>(
        internal::BuildTargetSlots(first.View(), answers));
    for (int epoch = 0; epoch < 4; ++epoch) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " epoch " +
                   std::to_string(epoch));
      for (graph::EdgeId e = 0; epoch > 0 && e < g.NumEdges(); ++e) {
        if (rng.NextIndex(2) == 0) continue;
        g.SetWeight(e, rng.NextIndex(6) == 0 ? 0.0 : rng.Uniform(0.01, 1.0));
      }
      const CsrSnapshot snap(g);
      const EipdEngine fresh(snap.View(), options, answers);
      const EipdEngine sharing(snap.View(), options, shared);
      for (size_t k : {size_t{1}, size_t{3}, answers.size() + 2}) {
        StatusOr<std::vector<ScoredAnswer>> want =
            fresh.Rank(seed, answers, k);
        StatusOr<std::vector<ScoredAnswer>> got =
            sharing.Rank(seed, answers, k);
        ASSERT_TRUE(want.ok() && got.ok());
        ExpectSameRanking(*want, *got);
      }
    }
  }
}

// An index built over another topology is refused at construction: one
// over a different node count, or with more slots than the view has
// edges. A debug build also checks every slot, so it refuses an index
// whose counts fit but whose slots do not.
TEST(EipdDeathTest, AnswerIndexFromAnotherTopologyDies) {
  const CsrSnapshot snap(MakeFixture());
  const auto index = std::make_shared<const internal::TargetSlots>(
      internal::BuildTargetSlots(snap.View(),
                                 std::vector<graph::NodeId>{3, 4}));
  const CsrSnapshot wider(WeightedDigraph(6));
  EXPECT_DEATH(EipdEngine(wider.View(), {}, index), "does not fit");
  const CsrSnapshot edgeless(WeightedDigraph(5));
  EXPECT_DEATH(EipdEngine(edgeless.View(), {}, index), "does not fit");
#ifndef NDEBUG
  // Same nodes and edges as the fixture, but 2 -> 1 now points at 3.
  WeightedDigraph rewired(5);
  ASSERT_TRUE(rewired.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(rewired.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(rewired.AddEdge(1, 3, 1.0).ok());
  ASSERT_TRUE(rewired.AddEdge(2, 4, 0.6).ok());
  ASSERT_TRUE(rewired.AddEdge(2, 3, 0.4).ok());
  const CsrSnapshot rewired_snap(rewired);
  EXPECT_DEATH(EipdEngine(rewired_snap.View(), {}, index), "answer index");
#endif
}

TEST(EipdTest, KernelCounterCountsEveryPropagation) {
  // serving.eipd.kernel.sparse counts single-root propagations; its name
  // predates the one kernel, and kgbench reads it.
  WeightedDigraph g = MakeFixture();
  CsrSnapshot snap(g);
  EipdEngine engine(snap.View());
  telemetry::Counter* counter =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.kernel.sparse");
  const uint64_t before = counter->Value();
  ASSERT_TRUE(engine.Propagate(SeedAt(0)).ok());
  ASSERT_TRUE(engine.Rank(SeedAt(1), {3, 4}, 2).ok());
  EXPECT_EQ(counter->Value(), before + 2);
}

// --- Theorem 1 (paper): extended inverse P-distance equals the PPR vector
// scores, verified as a property over random graphs and seeds. ---

class Theorem1Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem1Property, EipdConvergesToPpr) {
  Rng rng(GetParam());
  Result<WeightedDigraph> g = graph::ErdosRenyi(
      30, 150, rng, graph::WeightInit::kNormalizedRandom);
  ASSERT_TRUE(g.ok());

  graph::NodeId source = static_cast<graph::NodeId>(rng.NextIndex(30));
  QuerySeed seed = QuerySeed::FromNode(*g, source);
  if (seed.empty()) GTEST_SKIP() << "source has no out-edges";

  EipdOptions options;
  options.max_length = 80;  // effectively L -> infinity at (1-c)^80
  CsrSnapshot snap(*g);
  EipdEngine engine(snap.View(), options);
  StatusOr<std::vector<double>> phi = engine.Propagate(seed);
  ASSERT_TRUE(phi.ok());

  Result<std::vector<double>> pi = PowerIterationPprFromSeed(
      CsrSnapshot(*g).View(), seed);
  ASSERT_TRUE(pi.ok());

  for (graph::NodeId v = 0; v < g->NumNodes(); ++v) {
    EXPECT_NEAR((*phi)[v], (*pi)[v], 1e-6)
        << "node " << v << " seed " << source;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, Theorem1Property,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// Monotonicity property: longer L never decreases a similarity.
class MonotoneLengthProperty : public ::testing::TestWithParam<int> {};

TEST_P(MonotoneLengthProperty, SimilarityGrowsWithL) {
  Rng rng(99);
  Result<WeightedDigraph> g = graph::ErdosRenyi(20, 100, rng);
  ASSERT_TRUE(g.ok());
  QuerySeed seed = QuerySeed::FromNode(*g, 0);
  if (seed.empty()) GTEST_SKIP();

  int length = GetParam();
  EipdOptions shorter;
  shorter.max_length = length;
  EipdOptions longer;
  longer.max_length = length + 1;
  CsrSnapshot snap(*g);
  EipdEngine eval_short(snap.View(), shorter);
  EipdEngine eval_long(snap.View(), longer);
  StatusOr<std::vector<double>> phi_short = eval_short.Propagate(seed);
  StatusOr<std::vector<double>> phi_long = eval_long.Propagate(seed);
  ASSERT_TRUE(phi_short.ok());
  ASSERT_TRUE(phi_long.ok());
  for (graph::NodeId v = 0; v < g->NumNodes(); ++v) {
    EXPECT_LE((*phi_short)[v], (*phi_long)[v] + 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, MonotoneLengthProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Golden digest: served scores are pinned bit for bit. ---
//
// CRC-32C of the raw phi bytes for a fixed query sequence on a seeded
// scale-free graph, at three walk lengths, through one reused workspace.
// The sequence mixes single-node seeds, a flooding seed (links to a
// quarter of the graph) and a query at trial weights (every seventh edge
// set to 0.25), answered by the adjoint's forward pass over the same lane
// primitives. The digest was recorded
// from the level-synchronous kernel that zeroed the whole workspace before
// every query; a change to the per-level push order, the decay arithmetic
// or the workspace reset moves it.
TEST(EipdGoldenTest, PhiDigestIsPinned) {
  Rng rng(2024);
  Result<WeightedDigraph> g =
      graph::ScaleFreeWithTargetEdges(3000, 12000, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);

  std::vector<QuerySeed> seeds;
  for (graph::NodeId v : {0u, 1u, 17u, 256u, 1999u, 2999u}) {
    seeds.push_back(QuerySeed::FromNode(*g, v));
  }
  QuerySeed flood;
  for (graph::NodeId v = 0; v < 3000; v += 4) {
    flood.links.emplace_back(v, 1.0);
  }
  seeds.push_back(flood);
  seeds.push_back(QuerySeed::FromNode(*g, 5));

  TrialWeights trial(*g);
  for (graph::EdgeId e = 0; e < g->NumEdges(); e += 7) trial.x[e] = 0.25;

  uint32_t crc = 0;
  for (int length : {1, 3, 5}) {
    EipdEngine engine(snap.View(), {.max_length = length});
    PropagationWorkspace ws;
    for (const QuerySeed& seed : seeds) {
      StatusOr<std::vector<double>> phi = engine.Propagate(seed, &ws);
      ASSERT_TRUE(phi.ok()) << phi.status();
      crc = Crc32c(phi->data(), phi->size() * sizeof(double), crc);
    }
    const EipdAdjoint adjoint(snap.View(), {.max_length = length},
                              trial.var_of_edge.data());
    AdjointWorkspace trial_ws;
    adjoint.Forward(seeds[2], trial.x.data(), &trial_ws);
    const std::vector<double>& phi = trial_ws.lane.phi;
    crc = Crc32c(phi.data(), phi.size() * sizeof(double), crc);
  }
  EXPECT_EQ(crc, 0xc17a53b9u) << std::hex << "digest 0x" << crc;
}

// --- Workspace reuse: the O(touched) reset leaves nothing behind. ---
//
// Prepare zeroes phi only over the logged frontiers, or all of phi once
// the log reached n entries, and mass only over the last frontier. Each
// case drives one shared workspace through consecutive queries, a graph
// that grows and then shrinks, and an adjoint query at trial weights
// followed by a plain one, and every result must equal a fresh
// workspace's bit for bit.

enum class SeedShape {
  // One node's out-links on a large sparse graph: the log stays short.
  kSingleNode,
  // Links to every other node: the log reaches n, with repeats, before
  // every node phi was written on is logged, so only the full fill of phi
  // clears it.
  kFlooding,
};

class WorkspaceReuse : public ::testing::TestWithParam<SeedShape> {};

QuerySeed MakeSeed(const WeightedDigraph& g, graph::NodeId v,
                   SeedShape shape) {
  if (shape == SeedShape::kSingleNode) return QuerySeed::FromNode(g, v);
  QuerySeed flood;
  for (graph::NodeId u = v % 2; u < g.NumNodes(); u += 2) {
    flood.links.emplace_back(u, 1.0 + static_cast<double>((u + v) % 7));
  }
  return flood;
}

// Checks which reset branch the next query on `lane` will take.
void ExpectResetBranch(const PropagationWorkspace& lane, size_t n,
                       SeedShape shape) {
  if (shape == SeedShape::kSingleNode) {
    EXPECT_LT(lane.touched.size(), n) << "expected the O(touched) reset";
  } else {
    EXPECT_EQ(lane.touched.size(), n) << "expected the full reset";
  }
}

// Propagates `seed` through `shared`, checks which reset branch the next
// query will take, and compares the result with a fresh workspace's.
void ExpectMatchesFresh(const EipdEngine& engine, const QuerySeed& seed,
                        SeedShape shape, PropagationWorkspace* shared) {
  PropagationWorkspace fresh;
  StatusOr<std::vector<double>> reused = engine.Propagate(seed, shared);
  StatusOr<std::vector<double>> clean = engine.Propagate(seed, &fresh);
  ASSERT_TRUE(reused.ok()) << reused.status();
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_TRUE(BitwiseEqualVectors(*reused, *clean))
      << "a reused workspace left stale state behind";
  ExpectResetBranch(*shared, engine.view().NumNodes(), shape);
}

// The same at trial weights `x`: the adjoint's forward pass runs on
// `shared` as its lane and must match a fresh adjoint workspace's.
void ExpectTrialMatchesFresh(const EipdAdjoint& adjoint, size_t n,
                             const QuerySeed& seed,
                             const std::vector<double>& x, SeedShape shape,
                             PropagationWorkspace* shared) {
  AdjointWorkspace reused;
  reused.lane = std::move(*shared);
  adjoint.Forward(seed, x.data(), &reused);
  AdjointWorkspace fresh;
  adjoint.Forward(seed, x.data(), &fresh);
  EXPECT_TRUE(BitwiseEqualVectors(reused.lane.phi, fresh.lane.phi))
      << "a reused workspace left stale state behind";
  ExpectResetBranch(reused.lane, n, shape);
  *shared = std::move(reused.lane);
}

TEST_P(WorkspaceReuse, EveryQueryMatchesAFreshWorkspace) {
  const SeedShape shape = GetParam();
  Rng rng(61);
  Result<WeightedDigraph> large =
      graph::ScaleFreeWithTargetEdges(2000, 2600, rng);
  Result<WeightedDigraph> small = graph::ErdosRenyi(90, 500, rng);
  ASSERT_TRUE(large.ok());
  ASSERT_TRUE(small.ok());
  CsrSnapshot large_snap(*large);
  CsrSnapshot small_snap(*small);
  EipdEngine on_large(large_snap.View());
  EipdEngine on_small(small_snap.View());

  std::vector<QuerySeed> large_seeds;
  for (graph::NodeId v = 0; v < 2000 && large_seeds.size() < 8; v += 97) {
    QuerySeed seed = MakeSeed(*large, v, shape);
    if (!seed.empty()) large_seeds.push_back(std::move(seed));
  }
  QuerySeed small_seed = MakeSeed(*small, 1, shape);
  ASSERT_GE(large_seeds.size(), 2u);
  ASSERT_FALSE(small_seed.empty());

  PropagationWorkspace shared;
  // Consecutive queries on one graph.
  for (const QuerySeed& seed : large_seeds) {
    ExpectMatchesFresh(on_large, seed, shape, &shared);
  }
  // Shrink to a small graph, grow back, shrink again.
  ExpectMatchesFresh(on_small, small_seed, SeedShape::kFlooding, &shared);
  ExpectMatchesFresh(on_large, large_seeds[1], shape, &shared);
  ExpectMatchesFresh(on_small, small_seed, SeedShape::kFlooding, &shared);

  // A query at trial weights, then a plain one.
  TrialWeights large_trial(*large);
  for (graph::EdgeId e = 0; e < large->NumEdges(); e += 5) {
    large_trial.x[e] = 0.9;
  }
  const EipdAdjoint large_adjoint(large_snap.View(), {},
                                  large_trial.var_of_edge.data());
  ExpectTrialMatchesFresh(large_adjoint, large->NumNodes(), large_seeds[0],
                          large_trial.x, shape, &shared);
  ExpectMatchesFresh(on_large, large_seeds[0], shape, &shared);

  // Trial weights that restate every edge's own weight: the variable
  // index must feed the kernel the same weights in the same order, so phi
  // is bitwise the plain propagation's. The small graph is the dense one,
  // where push order decides the sums.
  TrialWeights identity(*small);
  const EipdAdjoint small_adjoint(small_snap.View(), {},
                                  identity.var_of_edge.data());
  ExpectTrialMatchesFresh(small_adjoint, small->NumNodes(), small_seed,
                          identity.x, SeedShape::kFlooding, &shared);
  StatusOr<std::vector<double>> plain = on_small.Propagate(small_seed);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_TRUE(BitwiseEqualVectors(shared.phi, *plain))
      << "restated trial weights changed the propagation";
}

INSTANTIATE_TEST_SUITE_P(
    ResetBranches, WorkspaceReuse,
    ::testing::Values(SeedShape::kSingleNode, SeedShape::kFlooding),
    [](const ::testing::TestParamInfo<SeedShape>& info) {
      return info.param == SeedShape::kSingleNode ? "ShortLog" : "FullLog";
    });

TEST(SparseWorkspaceTest, ConsecutiveSparseQueriesLazyResetCorrectly) {
  Rng rng(61);
  Result<WeightedDigraph> g = graph::ScaleFreeWithTargetEdges(150, 700, rng);
  ASSERT_TRUE(g.ok());
  CsrSnapshot snap(*g);
  EipdEngine engine(snap.View());

  PropagationWorkspace shared;
  for (graph::NodeId v = 0; v < 150; v += 13) {
    QuerySeed seed = QuerySeed::FromNode(*g, v);
    if (seed.empty()) continue;
    StatusOr<std::vector<double>> reused = engine.Propagate(seed, &shared);
    PropagationWorkspace fresh;
    StatusOr<std::vector<double>> clean = engine.Propagate(seed, &fresh);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(BitwiseEqualVectors(*reused, *clean))
        << "lazy reset left stale state behind (seed " << v << ")";
  }
}

TEST(SparseWorkspaceTest, ResizeAcrossGraphsFallsBackToFullReset) {
  Rng rng(71);
  Result<WeightedDigraph> small = graph::ErdosRenyi(40, 200, rng);
  Result<WeightedDigraph> large = graph::ErdosRenyi(90, 500, rng);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  CsrSnapshot small_snap(*small);
  CsrSnapshot large_snap(*large);

  EipdEngine on_small(small_snap.View());
  EipdEngine on_large(large_snap.View());

  QuerySeed small_seed = QuerySeed::FromNode(*small, 1);
  QuerySeed large_seed = QuerySeed::FromNode(*large, 1);
  ASSERT_FALSE(small_seed.empty());
  ASSERT_FALSE(large_seed.empty());

  PropagationWorkspace shared;
  ASSERT_TRUE(on_small.Propagate(small_seed, &shared).ok());
  StatusOr<std::vector<double>> grown =
      on_large.Propagate(large_seed, &shared);
  StatusOr<std::vector<double>> clean = on_large.Propagate(large_seed);
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(BitwiseEqualVectors(*grown, *clean));

  // Shrink back down again: size mismatch must trigger the full reset.
  StatusOr<std::vector<double>> shrunk =
      on_small.Propagate(small_seed, &shared);
  StatusOr<std::vector<double>> small_clean =
      on_small.Propagate(small_seed);
  ASSERT_TRUE(shrunk.ok());
  ASSERT_TRUE(small_clean.ok());
  EXPECT_TRUE(BitwiseEqualVectors(*shrunk, *small_clean));
}

}  // namespace
}  // namespace kgov::ppr
