#include "qa/kg_builder.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace kgov::qa {

int KnowledgeGraph::DocumentOf(graph::NodeId node) const {
  if (node < num_entities) return -1;
  size_t idx = node - num_entities;
  if (idx >= answer_nodes.size()) return -1;
  return static_cast<int>(idx);
}

ppr::EdgePredicate KnowledgeGraph::EntityEdgePredicate()
    const {
  const size_t entities = num_entities;
  return [entities](const graph::WeightedDigraph& g, graph::EdgeId e) {
    const graph::Edge& edge = g.edge(e);
    return edge.from < entities && edge.to < entities;
  };
}

Result<KnowledgeGraph> BuildKnowledgeGraph(const Corpus& corpus,
                                           const KgBuildParams& params) {
  if (corpus.num_entities == 0 || corpus.documents.empty()) {
    return Status::InvalidArgument("empty corpus");
  }

  KnowledgeGraph kg;
  kg.num_entities = corpus.num_entities;
  kg.graph = graph::WeightedDigraph(corpus.num_entities);
  for (EntityId e = 0; e < corpus.num_entities; ++e) {
    kg.graph.SetNodeLabel(e, corpus.entity_names.size() > e
                                 ? corpus.entity_names[e]
                                 : "entity" + std::to_string(e));
  }

  // Document frequency per entity and co-document frequency per pair.
  std::vector<int> doc_freq(corpus.num_entities, 0);
  std::unordered_map<uint64_t, int> pair_freq;
  auto pair_key = [](EntityId a, EntityId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  };
  for (const Document& doc : corpus.documents) {
    // Co-occurrence is computed over the full Q&A pair context: the
    // document's entities plus the query-side entities of its historical
    // questions (paper SIII-A extracts entities from questions AND
    // answers). Answer links below use document mentions only.
    std::vector<EntityMention> context = doc.mentions;
    context.insert(context.end(), doc.query_mentions.begin(),
                   doc.query_mentions.end());
    for (const EntityMention& m : context) {
      ++doc_freq[m.entity];
    }
    for (size_t i = 0; i < context.size(); ++i) {
      for (size_t j = 0; j < context.size(); ++j) {
        if (i == j) continue;
        ++pair_freq[pair_key(context[i].entity, context[j].entity)];
      }
    }
  }

  // Entity-entity edges: w(vi, vj) = #(vi, vj) / #(vi).
  struct Candidate {
    EntityId to;
    double weight;
  };
  std::vector<std::vector<Candidate>> out(corpus.num_entities);
  for (const auto& [key, count] : pair_freq) {
    EntityId from = static_cast<EntityId>(key >> 32);
    EntityId to = static_cast<EntityId>(key & 0xFFFFFFFFu);
    double weight =
        static_cast<double>(count) / static_cast<double>(doc_freq[from]);
    if (weight < params.min_edge_weight) continue;
    out[from].push_back(Candidate{to, weight});
  }
  for (EntityId from = 0; from < corpus.num_entities; ++from) {
    auto& candidates = out[from];
    if (params.max_out_edges_per_entity > 0 &&
        candidates.size() > params.max_out_edges_per_entity) {
      std::nth_element(candidates.begin(),
                       candidates.begin() + params.max_out_edges_per_entity,
                       candidates.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.weight > b.weight;
                       });
      candidates.resize(params.max_out_edges_per_entity);
    }
    for (const Candidate& c : candidates) {
      Result<graph::EdgeId> added = kg.graph.AddEdge(from, c.to, c.weight);
      KGOV_CHECK(added.ok());
    }
  }

  // Answer nodes: entity -> answer links weighted by the entity's mention
  // share in the document (the paper's query-link formula applied to
  // documents).
  kg.answer_nodes.reserve(corpus.documents.size());
  for (size_t d = 0; d < corpus.documents.size(); ++d) {
    const Document& doc = corpus.documents[d];
    graph::NodeId answer = kg.graph.AddNode();
    kg.answer_nodes.push_back(answer);
    kg.graph.SetNodeLabel(answer, "doc" + std::to_string(d));
    int total = 0;
    for (const EntityMention& m : doc.mentions) total += m.count;
    if (total <= 0) continue;
    for (const EntityMention& m : doc.mentions) {
      double weight =
          static_cast<double>(m.count) / static_cast<double>(total);
      Result<graph::EdgeId> added =
          kg.graph.AddEdge(m.entity, answer, weight);
      KGOV_CHECK(added.ok());
    }
  }

  // Random-walk semantics require out-weights summing to <= 1.
  kg.graph.NormalizeAllOutWeights();
  return kg;
}

}  // namespace kgov::qa
