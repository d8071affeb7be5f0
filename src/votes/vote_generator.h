// Synthetic vote workloads (paper SVII-A).
//
// The paper generates NQ queries and NA answers randomly linked to an
// Nnodes-node subgraph of a real graph, ranks top-k answers per query, and
// fabricates a positive or negative vote per query; negative votes pick a
// best answer whose average position is NaveN. This module reproduces that
// construction on any base graph.

#ifndef KGOV_VOTES_VOTE_GENERATOR_H_
#define KGOV_VOTES_VOTE_GENERATOR_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "ppr/eipd_engine.h"
#include "ppr/edge_vars.h"
#include "votes/vote.h"

namespace kgov::votes {

struct SyntheticVoteParams {
  /// NQ: number of queries (= votes).
  size_t num_queries = 100;
  /// NA: number of answer nodes.
  size_t num_answers = 2379;
  /// Nnodes: size of the subgraph queries/answers link into.
  size_t subgraph_nodes = 10000;
  /// Ndegree: target average out-degree of the subgraph (paper default 4).
  /// When the selected region is sparser, random entity-entity edges are
  /// added within it (then re-normalized) until the target is met;
  /// 0 keeps the host graph's structure untouched.
  double subgraph_target_degree = 4.0;
  /// Entity links per query node.
  size_t links_per_query = 3;
  /// Incoming entity links per answer node.
  size_t links_per_answer = 3;
  /// k: length of the returned answer list.
  size_t top_k = 20;
  /// NaveN: mean rank of the voted best answer in negative votes.
  double avg_negative_rank = 10.0;
  /// Fraction of votes that are negative (rest confirm the top answer).
  double negative_fraction = 0.5;
  /// Similarity evaluation settings used to produce the ranked lists.
  ppr::EipdOptions eipd;
};

/// A self-contained experiment input: the augmented graph (base entities +
/// appended answer nodes), the answer ids, and the votes.
struct SyntheticWorkload {
  graph::WeightedDigraph graph;
  /// Nodes with id < num_entity_nodes are entities; the rest are answers.
  size_t num_entity_nodes = 0;
  std::vector<graph::NodeId> answers;
  std::vector<Vote> votes;

  /// Predicate marking entity->entity edges as optimizable and
  /// query/answer link edges as fixed. Holds no graph pointer.
  ppr::EdgePredicate EntityEdgePredicate() const;
};

/// Builds a workload over a copy of `base`. Fails when `base` is too small
/// for the requested parameters.
Result<SyntheticWorkload> GenerateSyntheticWorkload(
    const graph::WeightedDigraph& base, const SyntheticVoteParams& params,
    Rng& rng);

}  // namespace kgov::votes

#endif  // KGOV_VOTES_VOTE_GENERATOR_H_
