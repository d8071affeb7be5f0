#include "qa/corpus.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace kgov::qa {
namespace {

// A linear scan: questions mention at most a handful of entities and
// documents a few dozen, so no set pays for itself.
bool MentionsEntity(const std::vector<EntityMention>& mentions,
                    EntityId entity) {
  return std::any_of(
      mentions.begin(), mentions.end(),
      [entity](const EntityMention& m) { return m.entity == entity; });
}

}  // namespace

CorpusParams TaobaoScaleParams() {
  CorpusParams params;
  // Tuned jointly so (a) BuildKnowledgeGraph yields entity-edge counts
  // near Table II's Taobao row (1,663 nodes / 17,591 edges) and (b) the
  // baseline ordering of Table V (IR << KG) reproduces: tight topics with
  // query-side vocabulary create the lexical gap that defeats surface
  // overlap, while mention-count alignment gives the weighted graph its
  // edge.
  params.num_entities = 1663;
  params.num_topics = 180;
  params.num_documents = 2379;
  params.mentions_per_document = 6;
  params.mentions_per_question = 3;
  params.cross_topic_noise = 0.02;
  params.max_mention_count = 5;
  params.common_entity_fraction = 0.0;
  params.common_mentions_per_document = 0;
  params.query_entities_per_topic = 3;
  params.question_paraphrase_fraction = 0.5;
  return params;
}

Result<Corpus> GenerateCorpus(const CorpusParams& params, Rng& rng) {
  if (params.num_entities == 0 || params.num_topics == 0 ||
      params.num_documents == 0) {
    return Status::InvalidArgument("corpus dimensions must be positive");
  }
  size_t reserved_common = static_cast<size_t>(
      params.common_entity_fraction * static_cast<double>(params.num_entities));
  if (reserved_common >= params.num_entities) {
    return Status::InvalidArgument("common entities exceed vocabulary");
  }
  size_t per_topic =
      (params.num_entities - reserved_common) / params.num_topics;
  if (per_topic < params.query_entities_per_topic + 2) {
    return Status::InvalidArgument(
        "fewer than query_entities_per_topic + 2 entities per topic");
  }
  if (params.mentions_per_document > params.num_entities) {
    return Status::InvalidArgument("document mentions exceed vocabulary");
  }
  // Each document draws its topical mentions from the topic's document-side
  // vocabulary; if that pool is smaller than the requested count the
  // generator would stall on duplicate rejections and pad documents with
  // cross-topic noise (unique fingerprints that break the experiments).
  {
    size_t reserved = static_cast<size_t>(params.common_entity_fraction *
                                          static_cast<double>(params.num_entities));
    size_t block = (params.num_entities - reserved) / params.num_topics;
    size_t doc_vocab = block > params.query_entities_per_topic
                           ? block - params.query_entities_per_topic
                           : 0;
    size_t commons_in_doc = std::min(params.common_mentions_per_document,
                                     reserved);
    if (params.mentions_per_document > commons_in_doc + doc_vocab) {
      return Status::InvalidArgument(
          "mentions_per_document exceeds per-topic document vocabulary");
    }
  }
  if (params.max_mention_count < 1) {
    return Status::InvalidArgument("max_mention_count must be >= 1");
  }

  Corpus corpus;
  corpus.num_entities = params.num_entities;

  // The first `num_common` entities are topic-free common terms; the rest
  // are assigned to topics in contiguous blocks (remainder entities join
  // the last topic).
  const size_t num_common = static_cast<size_t>(
      params.common_entity_fraction * static_cast<double>(params.num_entities));
  auto topic_of = [&](EntityId e) {
    if (e < num_common) return params.num_topics;  // sentinel: common
    size_t t = (e - num_common) / per_topic;
    return std::min(t, params.num_topics - 1);
  };
  corpus.entity_names.reserve(params.num_entities);
  for (EntityId e = 0; e < params.num_entities; ++e) {
    if (e < num_common) {
      corpus.entity_names.push_back("common_entity" + std::to_string(e));
    } else {
      corpus.entity_names.push_back("topic" + std::to_string(topic_of(e)) +
                                    "_entity" + std::to_string(e));
    }
  }

  // Entity index ranges per topic for sampling.
  auto topic_range = [&](size_t t) {
    size_t begin = num_common + t * per_topic;
    size_t end =
        (t + 1 == params.num_topics) ? params.num_entities : begin + per_topic;
    return std::pair<size_t, size_t>{begin, end};
  };

  corpus.documents.reserve(params.num_documents);
  for (size_t d = 0; d < params.num_documents; ++d) {
    Document doc;
    doc.topic = static_cast<int>(rng.NextIndex(params.num_topics));
    auto [begin, end] = topic_range(static_cast<size_t>(doc.topic));
    // The first query_entities_per_topic entities of the block are
    // query-side vocabulary: documents never mention them.
    size_t doc_begin = begin + std::min(params.query_entities_per_topic,
                                        end - begin);
    // Query-side vocabulary never occurs in document text, including in
    // cross-topic noise mentions.
    auto is_query_side = [&](EntityId e) {
      if (e < num_common) return false;
      size_t t = std::min<size_t>((e - num_common) / per_topic,
                                  params.num_topics - 1);
      size_t block_begin = num_common + t * per_topic;
      return e < block_begin + params.query_entities_per_topic;
    };
    std::unordered_set<EntityId> used;
    // Ambient vocabulary first: every document mentions a couple of common
    // entities (these also flow into questions via the subset sampling).
    if (num_common > 0) {
      size_t take = std::min(params.common_mentions_per_document, num_common);
      std::vector<size_t> commons =
          rng.SampleWithoutReplacement(num_common, take);
      for (size_t idx : commons) {
        EntityMention mention;
        mention.entity = static_cast<EntityId>(idx);
        mention.count =
            static_cast<int>(rng.UniformInt(1, params.max_mention_count));
        used.insert(mention.entity);
        doc.mentions.push_back(mention);
      }
    }
    while (doc.mentions.size() < params.mentions_per_document) {
      EntityId entity;
      if (rng.Bernoulli(params.cross_topic_noise)) {
        do {
          entity = static_cast<EntityId>(rng.NextIndex(params.num_entities));
        } while (is_query_side(entity));
      } else {
        entity = static_cast<EntityId>(doc_begin +
                                       rng.NextIndex(end - doc_begin));
      }
      if (!used.insert(entity).second) continue;
      EntityMention mention;
      mention.entity = entity;
      mention.count =
          static_cast<int>(rng.UniformInt(1, params.max_mention_count));
      doc.mentions.push_back(mention);
    }
    // Historical paired questions: the topic's query-side entities
    // co-occur with this document's text in past Q&A pairs.
    for (size_t q = 0; q < std::min(params.query_entities_per_topic,
                                    end - begin);
         ++q) {
      if (!rng.Bernoulli(0.75)) continue;  // not every pair uses every term
      EntityMention mention;
      mention.entity = static_cast<EntityId>(begin + q);
      mention.count =
          static_cast<int>(rng.UniformInt(1, params.max_mention_count));
      doc.query_mentions.push_back(mention);
    }
    corpus.documents.push_back(std::move(doc));
  }
  return corpus;
}

std::vector<Question> GenerateQuestions(const Corpus& corpus,
                                        size_t num_questions,
                                        const CorpusParams& params,
                                        Rng& rng) {
  KGOV_CHECK(!corpus.documents.empty());
  std::vector<Question> questions;
  questions.reserve(num_questions);

  // The corpus's common block (entity ids below num_common) carries no
  // topic; questions mention only the entities after it.
  const size_t num_common = static_cast<size_t>(
      params.common_entity_fraction * static_cast<double>(corpus.num_entities));

  // Zipf-style popularity over documents (document index = popularity
  // rank); skew 0 degenerates to the uniform distribution.
  std::vector<double> popularity(corpus.documents.size());
  for (size_t d = 0; d < popularity.size(); ++d) {
    popularity[d] =
        std::pow(static_cast<double>(d + 1), -params.question_popularity_skew);
  }
  const CategoricalSampler target_sampler(popularity);

  // Each topic's documents in ascending document order: the relevance loop
  // below walks only the target's topic, and meets its documents in the
  // order a scan of the whole corpus would.
  std::unordered_map<int, std::vector<int>> documents_by_topic;
  for (size_t d = 0; d < corpus.documents.size(); ++d) {
    documents_by_topic[corpus.documents[d].topic].push_back(
        static_cast<int>(d));
  }

  for (size_t q = 0; q < num_questions; ++q) {
    int target = static_cast<int>(target_sampler.Sample(rng));
    const Document& doc = corpus.documents[target];

    Question question;
    question.best_document = target;

    // Mention a mix of the target document's own entities (direct) and
    // related same-topic entities absent from it (paraphrase); see
    // question_paraphrase_fraction. Common (stop-word-like) entities carry
    // no intent and are filtered by entity extraction, so questions sample
    // only the document's topical mentions.
    std::vector<size_t> topical;
    for (size_t i = 0; i < doc.mentions.size(); ++i) {
      if (doc.mentions[i].entity >= num_common) topical.push_back(i);
    }
    if (topical.empty()) {
      for (size_t i = 0; i < doc.mentions.size(); ++i) topical.push_back(i);
    }
    // Users ask about what the document is centrally about: prefer the
    // highest-count mentions (ties shuffled).
    rng.Shuffle(topical);
    std::stable_sort(topical.begin(), topical.end(),
                     [&](size_t a, size_t b) {
                       return doc.mentions[a].count > doc.mentions[b].count;
                     });
    size_t take = std::min(params.mentions_per_question, topical.size());
    bool first_mention = true;
    for (size_t p = 0; p < take; ++p) {
      const size_t idx = topical[p];
      // The user's emphasis mirrors the document's: mention counts follow
      // the doc's counts. This is the count-share signal the KG's
      // answer-link weights encode and surface overlap cannot.
      EntityMention mention = doc.mentions[idx];
      bool paraphrase = !first_mention && !doc.query_mentions.empty() &&
                        rng.Bernoulli(params.question_paraphrase_fraction);
      if (paraphrase) {
        // Query-side vocabulary of this document's historical questions.
        const EntityMention& qm = doc.query_mentions[rng.NextIndex(
            doc.query_mentions.size())];
        mention.entity = qm.entity;
        mention.count = qm.count;
      } else if (rng.Bernoulli(params.cross_topic_noise * 0.5)) {
        mention.entity =
            static_cast<EntityId>(rng.NextIndex(corpus.num_entities));
      }
      if (MentionsEntity(question.mentions, mention.entity)) continue;
      question.mentions.push_back(mention);
      first_mention = false;
    }
    if (question.mentions.empty()) {
      // Degenerate sample; fall back to the doc's first entity.
      question.mentions.push_back(doc.mentions.front());
    }

    // Graded relevance: same-topic documents sharing >= 2 entities with the
    // target (up to 4 extras), plus the target itself.
    question.relevant_documents.push_back(target);
    for (int d : documents_by_topic.at(doc.topic)) {
      if (question.relevant_documents.size() >= 5) break;
      if (d == target) continue;
      int shared = 0;
      for (const EntityMention& m : corpus.documents[d].mentions) {
        if (MentionsEntity(doc.mentions, m.entity)) ++shared;
      }
      if (shared >= 2) question.relevant_documents.push_back(d);
    }
    questions.push_back(std::move(question));
  }
  return questions;
}

}  // namespace kgov::qa
