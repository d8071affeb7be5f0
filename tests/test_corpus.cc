#include "qa/corpus.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/crc32.h"

namespace kgov::qa {
namespace {

CorpusParams SmallParams() {
  CorpusParams params;
  params.num_entities = 100;
  params.num_topics = 10;
  params.num_documents = 80;
  params.mentions_per_document = 6;
  params.mentions_per_question = 3;
  // Plain layout for the structural tests: no ambient vocabulary and no
  // query-side entities (those features get dedicated tests below).
  params.common_entity_fraction = 0.0;
  params.common_mentions_per_document = 0;
  params.query_entities_per_topic = 0;
  params.question_paraphrase_fraction = 0.0;
  return params;
}

TEST(CorpusTest, GeneratesRequestedShape) {
  Rng rng(1);
  Result<Corpus> corpus = GenerateCorpus(SmallParams(), rng);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->num_entities, 100u);
  EXPECT_EQ(corpus->entity_names.size(), 100u);
  EXPECT_EQ(corpus->documents.size(), 80u);
}

TEST(CorpusTest, DocumentsHaveDistinctMentions) {
  Rng rng(2);
  Result<Corpus> corpus = GenerateCorpus(SmallParams(), rng);
  ASSERT_TRUE(corpus.ok());
  for (const Document& doc : corpus->documents) {
    EXPECT_EQ(doc.mentions.size(), 6u);
    std::set<EntityId> seen;
    for (const EntityMention& m : doc.mentions) {
      EXPECT_TRUE(seen.insert(m.entity).second);
      EXPECT_LT(m.entity, 100u);
      EXPECT_GE(m.count, 1);
      EXPECT_LE(m.count, 3);
    }
  }
}

TEST(CorpusTest, TopicsAssigned) {
  Rng rng(3);
  Result<Corpus> corpus = GenerateCorpus(SmallParams(), rng);
  ASSERT_TRUE(corpus.ok());
  for (const Document& doc : corpus->documents) {
    EXPECT_GE(doc.topic, 0);
    EXPECT_LT(doc.topic, 10);
  }
}

TEST(CorpusTest, DocumentsMostlyWithinTopic) {
  Rng rng(4);
  CorpusParams params = SmallParams();
  params.cross_topic_noise = 0.1;
  Result<Corpus> corpus = GenerateCorpus(params, rng);
  ASSERT_TRUE(corpus.ok());
  size_t per_topic = params.num_entities / params.num_topics;
  size_t in_topic = 0, total = 0;
  for (const Document& doc : corpus->documents) {
    for (const EntityMention& m : doc.mentions) {
      size_t topic = std::min<size_t>(m.entity / per_topic,
                                      params.num_topics - 1);
      if (static_cast<int>(topic) == doc.topic) ++in_topic;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(in_topic) / total, 0.75);
}

TEST(CorpusTest, RejectsBadParams) {
  Rng rng(5);
  CorpusParams params = SmallParams();
  params.num_entities = 0;
  EXPECT_FALSE(GenerateCorpus(params, rng).ok());

  params = SmallParams();
  params.num_topics = 90;  // < 2 entities per topic
  EXPECT_FALSE(GenerateCorpus(params, rng).ok());

  params = SmallParams();
  params.mentions_per_document = 1000;
  EXPECT_FALSE(GenerateCorpus(params, rng).ok());
}

TEST(CorpusTest, DeterministicUnderSeed) {
  Rng rng1(7), rng2(7);
  Result<Corpus> a = GenerateCorpus(SmallParams(), rng1);
  Result<Corpus> b = GenerateCorpus(SmallParams(), rng2);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t d = 0; d < a->documents.size(); ++d) {
    ASSERT_EQ(a->documents[d].mentions.size(),
              b->documents[d].mentions.size());
    for (size_t m = 0; m < a->documents[d].mentions.size(); ++m) {
      EXPECT_EQ(a->documents[d].mentions[m].entity,
                b->documents[d].mentions[m].entity);
    }
  }
}

TEST(CorpusTest, TaobaoScaleParamsMatchPaper) {
  CorpusParams params = TaobaoScaleParams();
  EXPECT_EQ(params.num_entities, 1663u);
  EXPECT_EQ(params.num_documents, 2379u);
}

TEST(CorpusTest, QueryEntitiesNeverAppearInDocuments) {
  CorpusParams params = SmallParams();
  params.query_entities_per_topic = 3;
  Rng rng(31);
  Result<Corpus> corpus = GenerateCorpus(params, rng);
  ASSERT_TRUE(corpus.ok());
  // Query-side entities are the first 3 of each topic block.
  size_t per_topic = params.num_entities / params.num_topics;
  auto is_query_side = [&](EntityId e) {
    return (e % per_topic) < 3 && e / per_topic < params.num_topics;
  };
  for (const Document& doc : corpus->documents) {
    for (const EntityMention& m : doc.mentions) {
      EXPECT_FALSE(is_query_side(m.entity))
          << "doc mentions query-side entity " << m.entity;
    }
    for (const EntityMention& m : doc.query_mentions) {
      EXPECT_TRUE(is_query_side(m.entity));
    }
  }
}

TEST(CorpusTest, CommonEntitiesAppearAcrossTopics) {
  CorpusParams params = SmallParams();
  params.common_entity_fraction = 0.05;  // 5 common entities
  params.common_mentions_per_document = 2;
  Rng rng(32);
  Result<Corpus> corpus = GenerateCorpus(params, rng);
  ASSERT_TRUE(corpus.ok());
  size_t docs_with_common = 0;
  for (const Document& doc : corpus->documents) {
    for (const EntityMention& m : doc.mentions) {
      if (m.entity < 5) {
        ++docs_with_common;
        break;
      }
    }
  }
  EXPECT_EQ(docs_with_common, corpus->documents.size());
}

TEST(QuestionsTest, ParaphraseMentionsComeFromQueryVocabulary) {
  CorpusParams params = SmallParams();
  params.query_entities_per_topic = 3;
  params.question_paraphrase_fraction = 1.0;  // paraphrase whenever possible
  Rng rng(33);
  Result<Corpus> corpus = GenerateCorpus(params, rng);
  ASSERT_TRUE(corpus.ok());
  std::vector<Question> questions =
      GenerateQuestions(*corpus, 50, params, rng);
  size_t paraphrased = 0;
  for (const Question& q : questions) {
    const Document& doc = corpus->documents[q.best_document];
    std::unordered_set<EntityId> doc_entities;
    for (const EntityMention& m : doc.mentions) doc_entities.insert(m.entity);
    for (const EntityMention& m : q.mentions) {
      if (doc_entities.count(m.entity) == 0) ++paraphrased;
    }
  }
  EXPECT_GT(paraphrased, 20u);  // a healthy share is query-side vocabulary
}

TEST(QuestionsTest, TargetsAreValidDocuments) {
  Rng rng(8);
  Result<Corpus> corpus = GenerateCorpus(SmallParams(), rng);
  ASSERT_TRUE(corpus.ok());
  std::vector<Question> questions =
      GenerateQuestions(*corpus, 40, SmallParams(), rng);
  EXPECT_EQ(questions.size(), 40u);
  for (const Question& q : questions) {
    EXPECT_GE(q.best_document, 0);
    EXPECT_LT(q.best_document, 80);
    EXPECT_FALSE(q.mentions.empty());
    EXPECT_LE(q.mentions.size(), 3u);
  }
}

TEST(QuestionsTest, RelevantDocumentsIncludeBest) {
  Rng rng(9);
  Result<Corpus> corpus = GenerateCorpus(SmallParams(), rng);
  ASSERT_TRUE(corpus.ok());
  std::vector<Question> questions =
      GenerateQuestions(*corpus, 30, SmallParams(), rng);
  for (const Question& q : questions) {
    ASSERT_FALSE(q.relevant_documents.empty());
    EXPECT_EQ(q.relevant_documents.front(), q.best_document);
    EXPECT_LE(q.relevant_documents.size(), 5u);
  }
}

TEST(QuestionsTest, MentionsMostlyFromTargetDocument) {
  Rng rng(10);
  CorpusParams params = SmallParams();
  params.cross_topic_noise = 0.0;  // no noise: all mentions from the doc
  Result<Corpus> corpus = GenerateCorpus(params, rng);
  ASSERT_TRUE(corpus.ok());
  std::vector<Question> questions =
      GenerateQuestions(*corpus, 30, params, rng);
  for (const Question& q : questions) {
    const Document& doc = corpus->documents[q.best_document];
    std::unordered_set<EntityId> doc_entities;
    for (const EntityMention& m : doc.mentions) {
      doc_entities.insert(m.entity);
    }
    for (const EntityMention& m : q.mentions) {
      EXPECT_TRUE(doc_entities.count(m.entity) > 0);
    }
  }
}


// A CRC-32C over every field of every question, then the generator's next
// draw, which pins the Rng state the call leaves behind.
uint32_t QuestionDigest(const std::vector<Question>& questions, Rng& rng) {
  uint32_t crc = 0;
  auto add = [&crc](uint64_t value) {
    crc = Crc32c(&value, sizeof(value), crc);
  };
  for (const Question& q : questions) {
    add(static_cast<uint64_t>(q.best_document));
    add(q.mentions.size());
    for (const EntityMention& m : q.mentions) {
      add(m.entity);
      add(static_cast<uint64_t>(m.count));
    }
    add(q.relevant_documents.size());
    for (int d : q.relevant_documents) add(static_cast<uint64_t>(d));
  }
  add(rng.Next64());
  return crc;
}

// Every generated question and the Rng stream are frozen: kgbench's
// deployments, the paper-scale benches and the golden digests downstream
// all draw their questions here. Covers the paper-scale corpus at two
// seeds, the structural SmallParams and the defaults (common entities,
// paraphrase).
TEST(QuestionsTest, GeneratedQuestionsArePinned) {
  struct Case {
    const char* name;
    CorpusParams params;
    uint64_t seed;
    size_t num_questions;
    uint32_t digest;
  };
  const Case cases[] = {
      {"taobao/1", TaobaoScaleParams(), 1, 2000, 0x9cca208bu},
      {"taobao/51407", TaobaoScaleParams(), 51407, 2000, 0x870a8bc7u},
      {"small/7", SmallParams(), 7, 300, 0x77e80035u},
      {"default/7", CorpusParams{}, 7, 500, 0xa630ddb9u},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    Result<Corpus> corpus = GenerateCorpus(c.params, rng);
    ASSERT_TRUE(corpus.ok()) << c.name;
    std::vector<Question> questions =
        GenerateQuestions(*corpus, c.num_questions, c.params, rng);
    ASSERT_EQ(questions.size(), c.num_questions) << c.name;
    const uint32_t digest = QuestionDigest(questions, rng);
    EXPECT_EQ(digest, c.digest)
        << c.name << std::hex << ": digest 0x" << digest;
  }
}

}  // namespace
}  // namespace kgov::qa
