#include "qa/qa_system.h"

#include <gtest/gtest.h>

#include "qa/kg_builder.h"

namespace kgov::qa {
namespace {

Corpus MakeTinyCorpus() {
  Corpus corpus;
  corpus.num_entities = 3;
  corpus.documents.resize(3);
  corpus.documents[0].mentions = {{0, 2}, {1, 1}};
  corpus.documents[1].mentions = {{0, 1}, {2, 1}};
  corpus.documents[2].mentions = {{1, 1}, {2, 3}};
  return corpus;
}

TEST(LinkQuestionTest, WeightsAreMentionShares) {
  Question q;
  q.mentions = {{0, 1}, {2, 3}};
  ppr::QuerySeed seed = LinkQuestion(q, 3);
  ASSERT_EQ(seed.links.size(), 2u);
  EXPECT_DOUBLE_EQ(seed.links[0].second, 0.25);
  EXPECT_DOUBLE_EQ(seed.links[1].second, 0.75);
  EXPECT_EQ(seed.links[1].first, 2u);
}

TEST(LinkQuestionTest, OutOfVocabularyMentionsIgnored) {
  Question q;
  q.mentions = {{0, 1}, {99, 5}};
  ppr::QuerySeed seed = LinkQuestion(q, 3);
  ASSERT_EQ(seed.links.size(), 1u);
  EXPECT_DOUBLE_EQ(seed.links[0].second, 1.0);
}

TEST(LinkQuestionTest, AllOutOfVocabularyYieldsEmptySeed) {
  Question q;
  q.mentions = {{99, 1}};
  EXPECT_TRUE(LinkQuestion(q, 3).empty());
}

class QaSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<KnowledgeGraph> kg = BuildKnowledgeGraph(MakeTinyCorpus());
    ASSERT_TRUE(kg.ok());
    kg_ = std::move(kg).value();
  }
  KnowledgeGraph kg_;
};

TEST_F(QaSystemTest, AskReturnsRankedDocuments) {
  QaOptions options;
  options.top_k = 3;
  QaSystem system(&kg_.graph, &kg_.answer_nodes, kg_.num_entities, options);
  Question q;
  q.mentions = {{0, 1}};  // asks about entity 0
  StatusOr<std::vector<RankedDocument>> answered = system.Answer(q);
  ASSERT_TRUE(answered.ok()) << answered.status();
  const std::vector<RankedDocument>& docs = *answered;
  ASSERT_FALSE(docs.empty());
  for (size_t i = 1; i < docs.size(); ++i) {
    EXPECT_GE(docs[i - 1].score, docs[i].score);
  }
  for (const RankedDocument& rd : docs) {
    EXPECT_GE(rd.document, 0);
    EXPECT_LT(rd.document, 3);
  }
}

TEST_F(QaSystemTest, EntityHeavyDocumentRanksHigh) {
  QaOptions options;
  options.top_k = 3;
  QaSystem system(&kg_.graph, &kg_.answer_nodes, kg_.num_entities, options);
  Question q;
  q.mentions = {{2, 1}};  // entity 2 dominates doc2 (count 3)
  StatusOr<std::vector<RankedDocument>> docs = system.Answer(q);
  ASSERT_TRUE(docs.ok()) << docs.status();
  ASSERT_FALSE(docs->empty());
  EXPECT_EQ(docs->front().document, 2);
}

TEST_F(QaSystemTest, TopKTruncates) {
  QaOptions options;
  options.top_k = 1;
  QaSystem system(&kg_.graph, &kg_.answer_nodes, kg_.num_entities, options);
  Question q;
  q.mentions = {{0, 1}};
  StatusOr<std::vector<RankedDocument>> docs = system.Answer(q);
  ASSERT_TRUE(docs.ok()) << docs.status();
  EXPECT_EQ(docs->size(), 1u);
}

TEST_F(QaSystemTest, EmptySeedYieldsNoAnswers) {
  QaSystem system(&kg_.graph, &kg_.answer_nodes, kg_.num_entities);
  Question q;
  q.mentions = {{99, 1}};
  StatusOr<std::vector<RankedDocument>> docs = system.Answer(q);
  ASSERT_TRUE(docs.ok()) << docs.status();
  EXPECT_TRUE(docs->empty());
}

TEST_F(QaSystemTest, AskSeedExposesNodeLevelApi) {
  QaSystem system(&kg_.graph, &kg_.answer_nodes, kg_.num_entities);
  ppr::QuerySeed seed;
  seed.links.emplace_back(0, 1.0);
  StatusOr<std::vector<ppr::ScoredAnswer>> ranked = system.AnswerSeed(seed);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_FALSE(ranked->empty());
  for (const ppr::ScoredAnswer& sa : *ranked) {
    EXPECT_GE(sa.node, kg_.num_entities);
  }
}

TEST_F(QaSystemTest, FreezesSnapshotAtConstruction) {
  // Snapshot-backed serving: the system freezes the graph's weights when
  // it is built, so later mutations are invisible until a new system (or
  // a new epoch's view) is constructed over the updated graph.
  graph::WeightedDigraph copy = kg_.graph;
  QaSystem system(&copy, &kg_.answer_nodes, kg_.num_entities);
  Question q;
  q.mentions = {{0, 1}};
  StatusOr<std::vector<RankedDocument>> before_or = system.Answer(q);
  ASSERT_TRUE(before_or.ok()) << before_or.status();
  const std::vector<RankedDocument>& before = *before_or;
  ASSERT_FALSE(before.empty());

  // Crush all of entity 0's outgoing weights except the doc1 link.
  for (const graph::OutEdge& out : copy.OutEdges(0)) {
    if (out.to != kg_.answer_nodes[1]) copy.SetWeight(out.edge, 1e-6);
  }
  copy.NormalizeOutWeights(0);

  // The frozen system still serves the old ranking...
  StatusOr<std::vector<RankedDocument>> after_or = system.Answer(q);
  ASSERT_TRUE(after_or.ok()) << after_or.status();
  const std::vector<RankedDocument>& after = *after_or;
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].document, before[i].document);
    EXPECT_DOUBLE_EQ(after[i].score, before[i].score);
  }

  // ...and a system rebuilt over the mutated graph sees the change.
  QaSystem rebuilt(&copy, &kg_.answer_nodes, kg_.num_entities);
  StatusOr<std::vector<RankedDocument>> fresh_or = rebuilt.Answer(q);
  ASSERT_TRUE(fresh_or.ok()) << fresh_or.status();
  const std::vector<RankedDocument>& fresh = *fresh_or;
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh.front().document, 1);
}

TEST_F(QaSystemTest, ViewConstructorServesFromCallerSnapshot) {
  // The epoch-serving path: the caller owns the snapshot and hands the
  // system a view of it; rankings match the digraph constructor's.
  graph::CsrSnapshot snapshot(kg_.graph);
  QaSystem from_view(snapshot.View(), &kg_.answer_nodes, kg_.num_entities);
  QaSystem from_graph(&kg_.graph, &kg_.answer_nodes, kg_.num_entities);
  Question q;
  q.mentions = {{0, 1}, {2, 2}};
  StatusOr<std::vector<RankedDocument>> a_or = from_view.Answer(q);
  ASSERT_TRUE(a_or.ok()) << a_or.status();
  const std::vector<RankedDocument>& a = *a_or;
  StatusOr<std::vector<RankedDocument>> b_or = from_graph.Answer(q);
  ASSERT_TRUE(b_or.ok()) << b_or.status();
  const std::vector<RankedDocument>& b = *b_or;
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].document, b[i].document);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

}  // namespace
}  // namespace kgov::qa
