#include "qa/baselines.h"

#include <gtest/gtest.h>

#include "qa/kg_builder.h"
#include "qa/qa_system.h"

namespace kgov::qa {
namespace {

Corpus MakeTinyCorpus() {
  Corpus corpus;
  corpus.num_entities = 4;
  corpus.documents.resize(3);
  corpus.documents[0].mentions = {{0, 1}, {1, 1}};
  corpus.documents[1].mentions = {{0, 1}, {2, 1}, {3, 1}};
  corpus.documents[2].mentions = {{2, 1}, {3, 2}};
  return corpus;
}

TEST(IrBaselineTest, ExactEntityMatchWins) {
  Corpus corpus = MakeTinyCorpus();
  IrBaseline ir(&corpus);
  Question q;
  q.mentions = {{0, 1}, {1, 1}};  // exactly doc0's entity set
  std::vector<RankedDocument> docs = ir.Ask(q, 3);
  ASSERT_FALSE(docs.empty());
  EXPECT_EQ(docs.front().document, 0);
  EXPECT_DOUBLE_EQ(docs.front().score, 1.0);  // Jaccard 1
}

TEST(IrBaselineTest, PartialOverlapScoredByCoincidenceRate) {
  Corpus corpus = MakeTinyCorpus();
  IrBaseline ir(&corpus);
  Question q;
  q.mentions = {{2, 1}};
  std::vector<RankedDocument> docs = ir.Ask(q, 3);
  // doc2 entities {2,3}: J = 1/2; doc1 entities {0,2,3}: J = 1/3.
  EXPECT_EQ(docs[0].document, 2);
  EXPECT_DOUBLE_EQ(docs[0].score, 0.5);
  EXPECT_EQ(docs[1].document, 1);
  EXPECT_NEAR(docs[1].score, 1.0 / 3.0, 1e-12);
}

TEST(IrBaselineTest, NoOverlapScoresZero) {
  Corpus corpus = MakeTinyCorpus();
  IrBaseline ir(&corpus);
  Question q;
  q.mentions = {{99, 1}};
  std::vector<RankedDocument> docs = ir.Ask(q, 3);
  for (const RankedDocument& rd : docs) {
    EXPECT_DOUBLE_EQ(rd.score, 0.0);
  }
}

TEST(IrBaselineTest, TruncatesToK) {
  Corpus corpus = MakeTinyCorpus();
  IrBaseline ir(&corpus);
  Question q;
  q.mentions = {{0, 1}};
  EXPECT_EQ(ir.Ask(q, 2).size(), 2u);
}

TEST(RandomWalkQaTest, AgreesWithEipdRankingOnTinyKg) {
  // PPR and the (untruncated) extended inverse P-distance are equivalent
  // (Theorem 1), so the random-walk baseline must produce the same ranking
  // as the EIPD-based QaSystem with a generous L.
  Corpus corpus = MakeTinyCorpus();
  Result<KnowledgeGraph> kg = BuildKnowledgeGraph(corpus);
  ASSERT_TRUE(kg.ok());

  QaOptions qa_options;
  qa_options.eipd.max_length = 50;
  qa_options.top_k = 3;
  QaSystem eipd_system(&kg->graph, &kg->answer_nodes, kg->num_entities,
                       qa_options);
  RandomWalkQa rw_system(&kg->graph, &kg->answer_nodes, kg->num_entities,
                         {}, 3);

  Question q;
  q.mentions = {{0, 1}, {3, 1}};
  StatusOr<std::vector<RankedDocument>> answered = eipd_system.Answer(q);
  ASSERT_TRUE(answered.ok()) << answered.status();
  const std::vector<RankedDocument>& eipd_docs = *answered;
  std::vector<RankedDocument> rw_docs = rw_system.Ask(q);
  ASSERT_EQ(eipd_docs.size(), rw_docs.size());
  for (size_t i = 0; i < eipd_docs.size(); ++i) {
    EXPECT_EQ(eipd_docs[i].document, rw_docs[i].document);
    EXPECT_NEAR(eipd_docs[i].score, rw_docs[i].score, 1e-6);
  }
}

TEST(RandomWalkQaTest, AskFastMatchesPerAnswerAsk) {
  Corpus corpus = MakeTinyCorpus();
  Result<KnowledgeGraph> kg = BuildKnowledgeGraph(corpus);
  ASSERT_TRUE(kg.ok());
  RandomWalkQa rw(&kg->graph, &kg->answer_nodes, kg->num_entities, {}, 3);
  Question q;
  q.mentions = {{0, 1}, {2, 2}};
  std::vector<RankedDocument> slow = rw.Ask(q);
  std::vector<RankedDocument> fast = rw.AskFast(q);
  ASSERT_EQ(slow.size(), fast.size());
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].document, fast[i].document);
    EXPECT_NEAR(slow[i].score, fast[i].score, 1e-9);
  }
}

TEST(RandomWalkQaTest, EmptySeedYieldsNothing) {
  Corpus corpus = MakeTinyCorpus();
  Result<KnowledgeGraph> kg = BuildKnowledgeGraph(corpus);
  ASSERT_TRUE(kg.ok());
  RandomWalkQa rw(&kg->graph, &kg->answer_nodes, kg->num_entities);
  Question q;
  q.mentions = {{99, 1}};
  EXPECT_TRUE(rw.Ask(q).empty());
}

}  // namespace
}  // namespace kgov::qa
