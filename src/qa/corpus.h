// Synthetic help-desk corpus (substitute for the paper's Taobao
// customer-service dataset; see DESIGN.md SS1).
//
// The paper only consumes its corpus through (a) the co-occurrence
// statistics that define the knowledge graph (SIII-A) and (b) entity
// mentions linking questions to the graph. The generator reproduces those:
// a topic-structured entity vocabulary, documents that mention mostly
// within-topic entities, and questions that paraphrase a target document's
// entity set. The target document is the ground-truth best answer (the
// paper's expert label).

#ifndef KGOV_QA_CORPUS_H_
#define KGOV_QA_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace kgov::qa {

using EntityId = uint32_t;

/// One entity occurring `count` times in a document or question.
struct EntityMention {
  EntityId entity = 0;
  int count = 1;
};

/// A HELP document (an answer candidate).
struct Document {
  /// Entities occurring in the document text (drive answer links).
  std::vector<EntityMention> mentions;
  /// Query-side entities from historical questions answered by this
  /// document. They model the lexical gap: users' words ("parcel") differ
  /// from document words ("package"). They contribute co-occurrence
  /// edges to the knowledge graph but no answer links.
  std::vector<EntityMention> query_mentions;
  int topic = -1;
};

/// A user question with its expert ground truth.
struct Question {
  std::vector<EntityMention> mentions;
  /// Index of the best document (expert label); -1 when unlabeled.
  int best_document = -1;
  /// Graded relevance set (includes best_document) used for MAP.
  std::vector<int> relevant_documents;
};

struct Corpus {
  size_t num_entities = 0;
  /// Synthetic entity names ("topic3_entity17"), for Table III-style output.
  std::vector<std::string> entity_names;
  std::vector<Document> documents;
};

struct CorpusParams {
  size_t num_entities = 600;
  size_t num_topics = 30;
  size_t num_documents = 500;
  /// Distinct entities mentioned per document.
  size_t mentions_per_document = 10;
  /// Distinct entities mentioned per question.
  size_t mentions_per_question = 4;
  /// Probability that a mention is drawn from a foreign topic.
  double cross_topic_noise = 0.15;
  /// Mention counts are uniform in [1, max_mention_count].
  int max_mention_count = 3;
  /// Zipf exponent for question traffic: questions target document d with
  /// probability proportional to (d+1)^-skew. 0 = uniform. Help-desk
  /// traffic is head-heavy, which is also what makes user votes inform
  /// future (test) questions.
  double question_popularity_skew = 1.0;
  /// Fraction of the vocabulary that is *common* (stop-word-like) entities
  /// ("order", "account"): they occur across topics in most documents and
  /// in questions. Surface-overlap retrieval (the IR baseline) is misled
  /// by them; the knowledge graph's conditional weights discount them.
  double common_entity_fraction = 0.03;
  /// Common-entity mentions added to every document.
  size_t common_mentions_per_document = 2;
  /// Fraction of question mentions drawn from query-side vocabulary
  /// (the document's historical query_mentions) instead of the document's
  /// own entities. Models the lexical gap: such mentions defeat
  /// surface-overlap retrieval (they never occur in documents) while the
  /// knowledge graph resolves them through co-occurrence relations.
  /// At least one mention stays direct.
  double question_paraphrase_fraction = 0.5;
  /// Query-side entities reserved per topic (taken from the topic's
  /// entity block; documents never mention them).
  size_t query_entities_per_topic = 2;
};

/// Paper-scale parameters: ~2,379 documents over a vocabulary sized to
/// yield a KG of roughly 1.6k nodes / 17k edges (Table II's Taobao row).
CorpusParams TaobaoScaleParams();

/// Generates the document collection. Fails on inconsistent parameters
/// (e.g. more mentions than entities per topic).
Result<Corpus> GenerateCorpus(const CorpusParams& params, Rng& rng);

/// Generates labeled questions: each targets a random document, mentions a
/// subset of its entities (plus noise), and lists same-topic overlapping
/// documents as graded-relevant. Costs O(documents) once per call (the
/// popularity sampler's running sums and the per-topic document lists),
/// then per question O(log documents) for the target draw plus a scan of
/// the target's topic (about 13 documents at TaobaoScaleParams), never of
/// the whole corpus.
std::vector<Question> GenerateQuestions(const Corpus& corpus,
                                        size_t num_questions,
                                        const CorpusParams& params, Rng& rng);

}  // namespace kgov::qa

#endif  // KGOV_QA_CORPUS_H_
