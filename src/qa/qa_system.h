// The knowledge-graph Q&A system (paper Fig. 1): link a question into the
// graph, evaluate extended-inverse-P-distance similarities, return ranked
// answers.
//
// Serving is snapshot-backed: a QaSystem evaluates on an immutable
// graph::GraphView through one EipdEngine whose answer set is the answer
// nodes: the engine indexes, once at construction, the edges into them
// (O(|V| + |E|)), and each question's propagation walks only those on its
// last hop, with rankings bitwise those of a full pass
// (ppr/eipd_engine.h). Construct
// it either directly over a view whose backing storage you manage (the
// epoch-serving path, e.g. core::OnlineKgOptimizer::serving()), or from a
// WeightedDigraph, in which case the system freezes its own CSR snapshot
// at construction — later mutations of that graph are not visible until
// you build a new QaSystem.

#ifndef KGOV_QA_QA_SYSTEM_H_
#define KGOV_QA_QA_SYSTEM_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "qa/corpus.h"
#include "qa/kg_builder.h"

namespace kgov::qa {

/// Builds the query seed of a question: w(vq, vi) = #(q, vi) / sum_j
/// #(q, vj) over the question's entity mentions (paper SIII-A). Mentions of
/// entities outside [0, num_entities) are ignored.
ppr::QuerySeed LinkQuestion(const Question& question, size_t num_entities);

struct QaOptions {
  ppr::EipdOptions eipd;
  /// Length of the returned answer list.
  size_t top_k = 20;

  /// OK iff eipd validates and top_k >= 1; the message names the field.
  Status Validate() const;
};

/// A ranked document with its similarity score.
struct RankedDocument {
  int document = -1;
  double score = 0.0;
};

class QaSystem {
 public:
  /// Serves answers from `view`. The view's backing storage and
  /// `answer_nodes` are borrowed and must outlive the system.
  /// `answer_nodes[d]` must be document d's node.
  QaSystem(graph::GraphView view,
           const std::vector<graph::NodeId>* answer_nodes,
           size_t num_entities, QaOptions options = {});

  /// Compatibility: freezes a CSR snapshot of `graph` (typically a
  /// KnowledgeGraph's graph or an optimized copy) at construction and
  /// serves from it. Later mutations of `graph` are not visible.
  QaSystem(const graph::WeightedDigraph* graph,
           const std::vector<graph::NodeId>* answer_nodes,
           size_t num_entities, QaOptions options = {});

  const QaOptions& options() const { return options_; }

  /// Top-k documents for `question`, best first. Mentions of entities the
  /// graph does not know are ignored (a question with no known mentions
  /// yields an empty list); a malformed linked seed is InvalidArgument.
  StatusOr<std::vector<RankedDocument>> Answer(const Question& question) const;

  /// Top-k answer *nodes* for a pre-linked query. InvalidArgument when a
  /// seed link is malformed for the served view.
  StatusOr<std::vector<ppr::ScoredAnswer>> AnswerSeed(
      const ppr::QuerySeed& seed) const;

 private:
  // Set only by the WeightedDigraph constructor; declared before engine_
  // so the view it backs is valid when engine_ initializes.
  std::shared_ptr<const graph::CsrSnapshot> owned_snapshot_;
  const std::vector<graph::NodeId>* answer_nodes_;
  size_t num_entities_;
  QaOptions options_;
  ppr::EipdEngine engine_;
};

}  // namespace kgov::qa

#endif  // KGOV_QA_QA_SYSTEM_H_
