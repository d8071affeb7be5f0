// Knowledge-graph construction from co-occurrence statistics (paper
// SIII-A).
//
// Entity-to-entity weights are conditional probabilities
//   w(vi, vj) = #(vi, vj) / #(vi),
// where #(vi) counts documents mentioning vi and #(vi, vj) documents
// mentioning both. Each document becomes an answer node, connected from its
// entities with weights proportional to the entity's mention count in the
// document. Finally every node's out-weights are normalized to sum to 1,
// which the random-walk semantics require (sub-stochasticity); the paper
// applies the same NormalizeEdges step.

#ifndef KGOV_QA_KG_BUILDER_H_
#define KGOV_QA_KG_BUILDER_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "ppr/edge_vars.h"
#include "qa/corpus.h"

namespace kgov::qa {

struct KgBuildParams {
  /// Entity-entity edges with conditional probability below this are
  /// dropped (controls graph density).
  double min_edge_weight = 0.0;
  /// Cap on out-edges kept per entity (0 = unlimited); keeps hubs sparse.
  size_t max_out_edges_per_entity = 0;
};

/// The augmented knowledge graph: entity nodes [0, num_entities) followed
/// by one answer node per document.
struct KnowledgeGraph {
  graph::WeightedDigraph graph;
  size_t num_entities = 0;
  /// answer_nodes[d] is the node of document d.
  std::vector<graph::NodeId> answer_nodes;

  /// Node id of entity `e` (identity mapping, for readability).
  graph::NodeId EntityNode(EntityId e) const {
    return static_cast<graph::NodeId>(e);
  }

  /// Document index of an answer node, or -1 for entity nodes.
  int DocumentOf(graph::NodeId node) const;

  /// Marks entity->entity edges optimizable, answer links fixed. Holds no
  /// graph pointer, so it stays valid across copies and moves.
  ppr::EdgePredicate EntityEdgePredicate() const;
};

/// Builds the augmented knowledge graph from a corpus.
Result<KnowledgeGraph> BuildKnowledgeGraph(const Corpus& corpus,
                                           const KgBuildParams& params = {});

}  // namespace kgov::qa

#endif  // KGOV_QA_KG_BUILDER_H_
