#include "votes/judgment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/rng.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "ppr/eipd_engine.h"

namespace kgov::votes {
namespace {

using graph::WeightedDigraph;

// Fixture where answers 3 and 4 are reachable from the query via disjoint
// and shared edges.
WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(2, 1, 0.4).ok());
  return g;
}

Vote MakeVote(std::vector<graph::NodeId> list, graph::NodeId best) {
  Vote vote;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = std::move(list);
  vote.best_answer = best;
  return vote;
}

JudgmentOptions DefaultOptions() {
  JudgmentOptions options;
  options.eipd.max_length = 4;
  return options;
}

// A filter over a snapshot of `g`, owning the snapshot it borrows.
struct SnapshotFilter {
  SnapshotFilter(const WeightedDigraph& g, JudgmentOptions options)
      : snapshot(g), filter(&g, snapshot.View(), std::move(options)) {}

  const JudgmentFilter* operator->() const { return &filter; }

  graph::CsrSnapshot snapshot;
  JudgmentFilter filter;
};

TEST(JudgmentTest, PositiveVoteAlwaysSatisfiable) {
  WeightedDigraph g = MakeFixture();
  SnapshotFilter filter(g, DefaultOptions());
  EXPECT_TRUE(filter->IsSatisfiable(MakeVote({3, 4}, 3)));
}

TEST(JudgmentTest, MalformedVoteRejected) {
  WeightedDigraph g = MakeFixture();
  SnapshotFilter filter(g, DefaultOptions());
  Vote bad;
  EXPECT_FALSE(filter->IsSatisfiable(bad));
}

TEST(JudgmentTest, VoteOutsideGraphRejected) {
  // Positive or negative, a vote naming a node the graph lacks cannot be
  // encoded, so the filter drops it.
  WeightedDigraph g = MakeFixture();
  SnapshotFilter filter(g, DefaultOptions());
  EXPECT_FALSE(filter->IsSatisfiable(MakeVote({9, 4}, 9)));
  EXPECT_FALSE(filter->IsSatisfiable(MakeVote({3, 9}, 9)));
}

TEST(JudgmentTest, SatisfiableNegativeVoteAccepted) {
  // Answer 4 has an exclusive edge (2->4) that the extreme condition can
  // raise to 1 while zeroing 1->3; the vote for 4 is satisfiable.
  WeightedDigraph g = MakeFixture();
  SnapshotFilter filter(g, DefaultOptions());
  EXPECT_TRUE(filter->IsSatisfiable(MakeVote({3, 4}, 4)));
}

TEST(JudgmentTest, UnreachableBestAnswerRejected) {
  // Node 4 unreachable: remove its only inbound edge by zero weight on a
  // fresh graph where 2->4 does not exist.
  WeightedDigraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  SnapshotFilter filter(g, DefaultOptions());
  // Vote claims 4 (unreachable) is best over 3: no weighting can help.
  EXPECT_FALSE(filter->IsSatisfiable(MakeVote({3, 4}, 4)));
}

TEST(JudgmentTest, SharedOnlyPathsDecidedByStructure) {
  // Both answers are reached through the single shared edge 0->1, then
  // diverge; the extreme condition gives the best answer's exclusive edge
  // weight 1 and the rival's 0, so the vote is satisfiable.
  WeightedDigraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.7).ok());  // rival answer 2
  ASSERT_TRUE(g.AddEdge(1, 3, 0.3).ok());  // best answer 3
  SnapshotFilter filter(g, DefaultOptions());
  EXPECT_TRUE(filter->IsSatisfiable(MakeVote({2, 3}, 3)));
}

TEST(JudgmentTest, FixedEdgesCannotBeRaised) {
  // Same structure, but all edges are fixed (not optimizable): the extreme
  // condition cannot change anything, so the current ranking stands and
  // the vote for the lower answer is unsatisfiable.
  WeightedDigraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.7).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 0.3).ok());
  JudgmentOptions options = DefaultOptions();
  options.is_variable = [](const WeightedDigraph&, graph::EdgeId) {
    return false;
  };
  SnapshotFilter filter(g, options);
  EXPECT_FALSE(filter->IsSatisfiable(MakeVote({2, 3}, 3)));
}

TEST(JudgmentTest, RankAboveComparatorUsed) {
  // Best answer at rank 3 competes against the answer at rank 2, not the
  // top answer. Construct scores s(5) > s(6) > s(7) and make 7 the best;
  // 7's exclusive path can be maxed, so it's satisfiable.
  WeightedDigraph g(8);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.3).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0.2).ok());
  ASSERT_TRUE(g.AddEdge(1, 5, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 6, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(3, 7, 1.0).ok());
  SnapshotFilter filter(g, DefaultOptions());
  EXPECT_TRUE(filter->IsSatisfiable(MakeVote({5, 6, 7}, 7)));
}

TEST(JudgmentTest, FilterVotesKeepsOrder) {
  WeightedDigraph g = MakeFixture();
  SnapshotFilter filter(g, DefaultOptions());
  Vote v1 = MakeVote({3, 4}, 4);
  v1.id = 1;
  Vote bad;  // malformed -> dropped
  bad.id = 2;
  Vote v3 = MakeVote({3, 4}, 3);
  v3.id = 3;
  std::vector<Vote> kept = filter->FilterVotes({v1, bad, v3});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].id, 1u);
  EXPECT_EQ(kept[1].id, 3u);
}

// Edges on some walk of length <= L (the query link is the first hop) from
// `seed` to `target` whose every weight is positive, by enumerating the
// walks: the oracle for the paper's Set(v_a).
std::set<graph::EdgeId> WalkEdges(const WeightedDigraph& g,
                                  const ppr::QuerySeed& seed,
                                  graph::NodeId target, int max_length) {
  std::set<graph::EdgeId> edges;
  std::vector<graph::EdgeId> path;
  std::function<void(graph::NodeId, int)> walk = [&](graph::NodeId node,
                                                     int len) {
    if (node == target) edges.insert(path.begin(), path.end());
    if (len == max_length) return;
    for (const graph::OutEdge& out : g.OutEdges(node)) {
      if (g.Weight(out.edge) <= 0.0) continue;
      path.push_back(out.edge);
      walk(out.to, len + 1);
      path.pop_back();
    }
  };
  for (const auto& [node, weight] : seed.links) {
    if (weight > 0.0) walk(node, 1);
  }
  return edges;
}

// The extreme condition evaluated on a copy of the graph that carries the
// extreme weights, scored by the serving engine on its own snapshot.
bool ExtremeConditionHolds(const WeightedDigraph& g, const Vote& vote,
                           const JudgmentOptions& options) {
  if (vote.IsPositive()) return true;
  const graph::NodeId best = vote.best_answer;
  const graph::NodeId rival = vote.answer_list[vote.BestAnswerRank() - 2];
  const int L = options.eipd.max_length;
  const std::set<graph::EdgeId> best_edges = WalkEdges(g, vote.query, best, L);
  const std::set<graph::EdgeId> rival_edges =
      WalkEdges(g, vote.query, rival, L);
  auto changeable = [&](graph::EdgeId e) {
    return !options.is_variable || options.is_variable(g, e);
  };
  WeightedDigraph extreme = g;
  for (graph::EdgeId e : best_edges) {
    if (changeable(e)) extreme.SetWeight(e, rival_edges.count(e) ? 0.5 : 1.0);
  }
  for (graph::EdgeId e : rival_edges) {
    if (changeable(e) && !best_edges.count(e)) extreme.SetWeight(e, 0.0);
  }
  graph::CsrSnapshot snapshot(extreme);
  std::vector<double> scores = ppr::EipdEngine(snapshot.View(), options.eipd)
                                   .Scores(vote.query, {best, rival})
                                   .value();
  return scores[0] > scores[1];
}

// FilterVotes keeps exactly the votes whose extreme condition holds, on
// random graphs at every L from 1 to 5, with every edge changeable and
// with only some.
TEST(JudgmentProperty, KeepsExactlyTheVotesWhoseExtremeConditionHolds) {
  const std::function<bool(const WeightedDigraph&, graph::EdgeId)>
      predicates[] = {nullptr, [](const WeightedDigraph& g, graph::EdgeId e) {
                        return (g.edges()[e].from + e) % 3 != 0;
                      }};
  size_t kept_total = 0;
  size_t rejected_total = 0;
  for (uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(7100 + trial);
    Result<WeightedDigraph> g = graph::ErdosRenyi(9, 24, rng);
    ASSERT_TRUE(g.ok());
    std::vector<Vote> votes;
    for (uint32_t id = 0; id < 12; ++id) {
      Vote vote;
      vote.id = id;
      vote.query.links.emplace_back(
          static_cast<graph::NodeId>(rng.NextIndex(9)), 1.0);
      if (id % 3 == 0) {
        vote.query.links.emplace_back(
            static_cast<graph::NodeId>(rng.NextIndex(9)), 0.5);
      }
      std::vector<graph::NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8};
      for (size_t i = 0; i < nodes.size(); ++i) {
        std::swap(nodes[i], nodes[i + rng.NextIndex(nodes.size() - i)]);
      }
      nodes.resize(2 + rng.NextIndex(3));
      vote.answer_list = nodes;
      vote.best_answer = nodes[rng.NextIndex(nodes.size())];
      votes.push_back(std::move(vote));
    }
    const graph::CsrSnapshot snapshot(*g);
    for (int length = 1; length <= 5; ++length) {
      for (const auto& predicate : predicates) {
        JudgmentOptions options;
        options.eipd.max_length = length;
        options.is_variable = predicate;
        std::vector<uint32_t> want;
        for (const Vote& vote : votes) {
          if (ExtremeConditionHolds(*g, vote, options)) want.push_back(vote.id);
        }
        std::vector<uint32_t> got;
        for (const Vote& vote :
             JudgmentFilter(&*g, snapshot.View(), options).FilterVotes(votes)) {
          got.push_back(vote.id);
        }
        EXPECT_EQ(got, want) << "trial " << trial << " L=" << length
                             << (predicate ? " restrictive" : " all edges");
        kept_total += got.size();
        rejected_total += votes.size() - got.size();
      }
    }
  }
  // Both outcomes occur, so the comparison decides something.
  EXPECT_GT(kept_total, 0u);
  EXPECT_GT(rejected_total, 0u);
}

}  // namespace
}  // namespace kgov::votes
