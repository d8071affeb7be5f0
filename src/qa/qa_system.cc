#include "qa/qa_system.h"

#include <unordered_map>

#include "common/logging.h"

namespace kgov::qa {

Status QaOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(eipd.Validate());
  if (top_k < 1) {
    return Status::InvalidArgument("QaOptions.top_k must be >= 1, got 0");
  }
  return Status::OK();
}

ppr::QuerySeed LinkQuestion(const Question& question, size_t num_entities) {
  ppr::QuerySeed seed;
  int total = 0;
  for (const EntityMention& m : question.mentions) {
    if (m.entity < num_entities) total += m.count;
  }
  if (total <= 0) return seed;
  for (const EntityMention& m : question.mentions) {
    if (m.entity >= num_entities) continue;
    seed.links.emplace_back(
        static_cast<graph::NodeId>(m.entity),
        static_cast<double>(m.count) / static_cast<double>(total));
  }
  return seed;
}

namespace {

std::shared_ptr<const graph::CsrSnapshot> SnapshotOf(
    const graph::WeightedDigraph* graph) {
  KGOV_CHECK(graph != nullptr);
  return std::make_shared<graph::CsrSnapshot>(*graph);
}

const std::vector<graph::NodeId>& AnswersOf(
    const std::vector<graph::NodeId>* answer_nodes) {
  KGOV_CHECK(answer_nodes != nullptr);
  return *answer_nodes;
}

}  // namespace

QaSystem::QaSystem(graph::GraphView view,
                   const std::vector<graph::NodeId>* answer_nodes,
                   size_t num_entities, QaOptions options)
    : answer_nodes_(answer_nodes),
      num_entities_(num_entities),
      options_(options),
      engine_(view, options.eipd, AnswersOf(answer_nodes)) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

QaSystem::QaSystem(const graph::WeightedDigraph* graph,
                   const std::vector<graph::NodeId>* answer_nodes,
                   size_t num_entities, QaOptions options)
    : owned_snapshot_(SnapshotOf(graph)),
      answer_nodes_(answer_nodes),
      num_entities_(num_entities),
      options_(options),
      engine_(owned_snapshot_->View(), options.eipd,
              AnswersOf(answer_nodes)) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

StatusOr<std::vector<ppr::ScoredAnswer>> QaSystem::AnswerSeed(
    const ppr::QuerySeed& seed) const {
  if (seed.empty()) return std::vector<ppr::ScoredAnswer>{};
  return engine_.Rank(seed, *answer_nodes_, options_.top_k);
}

StatusOr<std::vector<RankedDocument>> QaSystem::Answer(
    const Question& question) const {
  ppr::QuerySeed seed = LinkQuestion(question, num_entities_);
  std::vector<ppr::ScoredAnswer> ranked;
  KGOV_ASSIGN_OR_RETURN(ranked, AnswerSeed(seed));
  // Node -> document translation (answer nodes are contiguous after the
  // entities, so this is arithmetic).
  std::vector<RankedDocument> docs;
  docs.reserve(ranked.size());
  for (const ppr::ScoredAnswer& sa : ranked) {
    RankedDocument doc;
    doc.document = static_cast<int>(sa.node - num_entities_);
    doc.score = sa.score;
    docs.push_back(doc);
  }
  return docs;
}

}  // namespace kgov::qa
