#include "votes/vote_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "graph/csr.h"
#include "graph/subgraph.h"
#include "ppr/eipd_engine.h"

namespace kgov::votes {

ppr::EdgePredicate SyntheticWorkload::EntityEdgePredicate()
    const {
  const size_t entities = num_entity_nodes;
  return [entities](const graph::WeightedDigraph& g, graph::EdgeId e) {
    const graph::Edge& edge = g.edge(e);
    return edge.from < entities && edge.to < entities;
  };
}

Result<SyntheticWorkload> GenerateSyntheticWorkload(
    const graph::WeightedDigraph& base, const SyntheticVoteParams& params,
    Rng& rng) {
  if (base.NumNodes() < 2) {
    return Status::InvalidArgument("base graph too small");
  }
  if (params.num_answers < 2 || params.top_k < 2) {
    return Status::InvalidArgument("need at least 2 answers and top_k >= 2");
  }

  SyntheticWorkload workload;
  workload.graph = base;
  workload.num_entity_nodes = base.NumNodes();

  std::vector<graph::NodeId> region = graph::SelectBfsRegion(
      workload.graph, params.subgraph_nodes, rng);
  if (region.size() < params.links_per_query ||
      region.size() < params.links_per_answer) {
    return Status::InvalidArgument("subgraph too small for link counts");
  }

  // Densify the region to the requested Ndegree (paper SVII-A): count the
  // edges internal to the region and add random ones until the region's
  // average out-degree reaches the target.
  if (params.subgraph_target_degree > 0.0 && region.size() >= 2) {
    size_t internal_edges =
        graph::CountInternalEdges(workload.graph, region);
    size_t target_edges = static_cast<size_t>(
        params.subgraph_target_degree * static_cast<double>(region.size()));
    std::unordered_set<graph::NodeId> densified;
    size_t attempts = 0;
    const size_t max_attempts = 20 * target_edges + 1000;
    while (internal_edges < target_edges && attempts < max_attempts) {
      ++attempts;
      graph::NodeId from = region[rng.NextIndex(region.size())];
      graph::NodeId to = region[rng.NextIndex(region.size())];
      if (from == to) continue;
      if (workload.graph.AddEdge(from, to, rng.Uniform(0.1, 1.0)).ok()) {
        ++internal_edges;
        densified.insert(from);
      }
    }
    for (graph::NodeId v : densified) {
      workload.graph.NormalizeOutWeights(v);
    }
  }

  // Append answer nodes with incoming links from random region entities.
  std::unordered_set<graph::NodeId> touched_entities;
  workload.answers.reserve(params.num_answers);
  for (size_t a = 0; a < params.num_answers; ++a) {
    graph::NodeId answer = workload.graph.AddNode();
    workload.answers.push_back(answer);
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(region.size(), params.links_per_answer);
    for (size_t idx : picks) {
      graph::NodeId entity = region[idx];
      Result<graph::EdgeId> added =
          workload.graph.AddEdge(entity, answer, rng.Uniform(0.2, 1.0));
      if (added.ok()) touched_entities.insert(entity);
    }
  }
  // Restore sub-stochasticity of entities that gained answer links.
  for (graph::NodeId entity : touched_entities) {
    workload.graph.NormalizeOutWeights(entity);
  }

  // Queries + votes. The graph is final from here on, so rank on the
  // unified engine over one frozen snapshot with a reused workspace.
  graph::CsrSnapshot snapshot(workload.graph);
  ppr::EipdEngine evaluator(snapshot.View(), params.eipd);
  ppr::PropagationWorkspace workspace;
  double negative_rank_mean =
      std::clamp(params.avg_negative_rank, 2.0,
                 static_cast<double>(params.top_k));

  uint32_t vote_id = 0;
  size_t attempts = 0;
  const size_t max_attempts = params.num_queries * 50 + 100;
  while (workload.votes.size() < params.num_queries &&
         attempts < max_attempts) {
    ++attempts;
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(region.size(), params.links_per_query);
    std::vector<graph::NodeId> entities;
    entities.reserve(picks.size());
    for (size_t idx : picks) entities.push_back(region[idx]);
    ppr::QuerySeed seed = ppr::QuerySeed::UniformOver(entities);

    StatusOr<std::vector<ppr::ScoredAnswer>> ranked_or =
        evaluator.Rank(seed, workload.answers, params.top_k, &workspace);
    if (!ranked_or.ok()) continue;  // malformed sample; resample
    std::vector<ppr::ScoredAnswer> ranked = std::move(ranked_or).value();
    // Drop zero-score tail: those answers are unreachable from the query.
    while (!ranked.empty() && ranked.back().score <= 0.0) ranked.pop_back();
    if (ranked.size() < 2) continue;  // query disconnected; resample

    Vote vote;
    vote.id = vote_id;
    vote.query = std::move(seed);
    vote.answer_list.reserve(ranked.size());
    for (const ppr::ScoredAnswer& sa : ranked) {
      vote.answer_list.push_back(sa.node);
    }
    if (rng.Bernoulli(params.negative_fraction)) {
      // Negative: pick the "true best" at a rank centred on NaveN.
      double sampled = rng.NextGaussian() * (negative_rank_mean / 3.0) +
                       negative_rank_mean;
      int rank = static_cast<int>(std::lround(sampled));
      rank = std::clamp(rank, 2, static_cast<int>(vote.answer_list.size()));
      vote.best_answer = vote.answer_list[rank - 1];
    } else {
      vote.best_answer = vote.answer_list.front();
    }
    workload.votes.push_back(std::move(vote));
    ++vote_id;
  }

  if (workload.votes.size() < params.num_queries) {
    return Status::Internal(
        "could not generate enough connected queries; base graph too "
        "sparse");
  }
  return workload;
}

}  // namespace kgov::votes
