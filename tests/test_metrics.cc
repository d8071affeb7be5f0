#include "qa/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "qa/kg_builder.h"

namespace kgov::qa {
namespace {

std::vector<RankedDocument> Ranking(std::vector<int> docs) {
  std::vector<RankedDocument> out;
  double score = 1.0;
  for (int d : docs) {
    out.push_back(RankedDocument{d, score});
    score *= 0.9;
  }
  return out;
}

Question Labeled(int best, std::vector<int> relevant = {}) {
  Question q;
  q.best_document = best;
  q.relevant_documents = relevant.empty() ? std::vector<int>{best} : relevant;
  return q;
}

TEST(DocumentRankTest, Basics) {
  std::vector<RankedDocument> ranking = Ranking({5, 2, 9});
  EXPECT_EQ(DocumentRank(ranking, 5), 1);
  EXPECT_EQ(DocumentRank(ranking, 9), 3);
  EXPECT_EQ(DocumentRank(ranking, 7), 0);
}

TEST(MetricsTest, PerfectRanking) {
  std::vector<Question> questions{Labeled(1), Labeled(2)};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({1, 2, 3}),
                                                    Ranking({2, 1, 3})};
  RankingMetrics m = EvaluateRankings(questions, rankings);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_DOUBLE_EQ(m.map, 1.0);
  EXPECT_DOUBLE_EQ(m.average_rank, 1.0);
  EXPECT_DOUBLE_EQ(m.hits_at[0], 1.0);  // H@1
}

TEST(MetricsTest, MrrAveragesReciprocalRanks) {
  std::vector<Question> questions{Labeled(1), Labeled(9)};
  std::vector<std::vector<RankedDocument>> rankings{
      Ranking({1, 2}),      // rank 1
      Ranking({2, 3, 9})};  // rank 3
  RankingMetrics m = EvaluateRankings(questions, rankings);
  EXPECT_NEAR(m.mrr, (1.0 + 1.0 / 3.0) / 2.0, 1e-12);
}

TEST(MetricsTest, HitsAtKThresholds) {
  std::vector<Question> questions{Labeled(7)};
  std::vector<std::vector<RankedDocument>> rankings{
      Ranking({1, 2, 3, 7})};  // rank 4
  RankingMetrics m = EvaluateRankings(questions, rankings, {1, 3, 5, 10});
  EXPECT_DOUBLE_EQ(m.hits_at[0], 0.0);  // H@1
  EXPECT_DOUBLE_EQ(m.hits_at[1], 0.0);  // H@3
  EXPECT_DOUBLE_EQ(m.hits_at[2], 1.0);  // H@5
  EXPECT_DOUBLE_EQ(m.hits_at[3], 1.0);  // H@10
}

TEST(MetricsTest, AbsentBestAnswerPenalized) {
  std::vector<Question> questions{Labeled(42)};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({1, 2, 3})};
  RankingMetrics m = EvaluateRankings(questions, rankings);
  EXPECT_DOUBLE_EQ(m.mrr, 0.0);
  EXPECT_DOUBLE_EQ(m.average_rank, 4.0);  // list size + 1
  EXPECT_DOUBLE_EQ(m.hits_at[0], 0.0);
}

TEST(MetricsTest, MapOverGradedRelevance) {
  // Relevant {1, 3}; ranking (1, 2, 3): AP = (1/1 + 2/3) / 2.
  std::vector<Question> questions{Labeled(1, {1, 3})};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({1, 2, 3})};
  RankingMetrics m = EvaluateRankings(questions, rankings);
  EXPECT_NEAR(m.map, (1.0 + 2.0 / 3.0) / 2.0, 1e-12);
}

TEST(MetricsTest, MapLowerWhenRelevantMissing) {
  std::vector<Question> questions{Labeled(1, {1, 99})};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({1, 2, 3})};
  RankingMetrics m = EvaluateRankings(questions, rankings);
  EXPECT_NEAR(m.map, 0.5, 1e-12);  // only 1 of 2 relevant found
}

TEST(MetricsTest, UnlabeledQuestionsSkipped) {
  Question unlabeled;
  std::vector<Question> questions{unlabeled, Labeled(1)};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({5}),
                                                    Ranking({1})};
  RankingMetrics m = EvaluateRankings(questions, rankings);
  EXPECT_EQ(m.num_questions, 1u);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
}

TEST(MetricsTest, EmptyInput) {
  RankingMetrics m = EvaluateRankings({}, {});
  EXPECT_EQ(m.num_questions, 0u);
  EXPECT_DOUBLE_EQ(m.mrr, 0.0);
}

TEST(MetricsTest, PerfectRankingNdcgIsOne) {
  std::vector<Question> questions{Labeled(1, {1, 2})};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({1, 2, 3})};
  RankingMetrics m = EvaluateRankings(questions, rankings);
  EXPECT_NEAR(m.ndcg, 1.0, 1e-12);
}

TEST(MetricsTest, WorseOrderingLowersNdcg) {
  std::vector<Question> questions{Labeled(1, {1, 2})};
  std::vector<std::vector<RankedDocument>> good{Ranking({1, 2, 3})};
  std::vector<std::vector<RankedDocument>> bad{Ranking({3, 2, 1})};
  double ndcg_good = EvaluateRankings(questions, good).ndcg;
  double ndcg_bad = EvaluateRankings(questions, bad).ndcg;
  EXPECT_GT(ndcg_good, ndcg_bad);
  EXPECT_GT(ndcg_bad, 0.0);
}

TEST(MetricsTest, NdcgHandComputed) {
  // Relevant {1 (best, gain 2), 3 (gain 1)}; ranking (2, 1, 3):
  // DCG = 2/log2(3) + 1/log2(4); IDCG = 2/log2(2) + 1/log2(3).
  std::vector<Question> questions{Labeled(1, {1, 3})};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({2, 1, 3})};
  RankingMetrics m = EvaluateRankings(questions, rankings);
  double dcg = 2.0 / std::log2(3.0) + 1.0 / 2.0;
  double idcg = 2.0 + 1.0 / std::log2(3.0);
  EXPECT_NEAR(m.ndcg, dcg / idcg, 1e-12);
}

TEST(MetricsTest, PrecisionAtK) {
  // Relevant {1, 3}; ranking (1, 2, 3): P@1 = 1, P@3 = 2/3.
  std::vector<Question> questions{Labeled(1, {1, 3})};
  std::vector<std::vector<RankedDocument>> rankings{Ranking({1, 2, 3})};
  RankingMetrics m = EvaluateRankings(questions, rankings, {1, 3});
  ASSERT_EQ(m.precision_at.size(), 2u);
  EXPECT_DOUBLE_EQ(m.precision_at[0], 1.0);
  EXPECT_NEAR(m.precision_at[1], 2.0 / 3.0, 1e-12);
}

TEST(EvaluateServingViewTest, MatchesManualAskAndEvaluate) {
  Corpus corpus;
  corpus.num_entities = 3;
  corpus.documents.resize(3);
  corpus.documents[0].mentions = {{0, 2}, {1, 1}};
  corpus.documents[1].mentions = {{0, 1}, {2, 1}};
  corpus.documents[2].mentions = {{1, 1}, {2, 3}};
  Result<KnowledgeGraph> kg = BuildKnowledgeGraph(corpus);
  ASSERT_TRUE(kg.ok());

  std::vector<Question> questions(2);
  questions[0].mentions = {{0, 1}};
  questions[0].best_document = 0;
  questions[0].relevant_documents = {0};
  questions[1].mentions = {{2, 1}};
  questions[1].best_document = 2;
  questions[1].relevant_documents = {2};

  graph::CsrSnapshot snapshot(kg->graph);
  RankingMetrics from_view = EvaluateServingView(
      snapshot.View(), kg->answer_nodes, kg->num_entities, questions);

  QaSystem system(&kg->graph, &kg->answer_nodes, kg->num_entities);
  std::vector<std::vector<RankedDocument>> rankings;
  for (const Question& q : questions) {
    StatusOr<std::vector<RankedDocument>> docs = system.Answer(q);
    ASSERT_TRUE(docs.ok()) << docs.status();
    rankings.push_back(std::move(docs).value());
  }
  RankingMetrics manual = EvaluateRankings(questions, rankings);

  EXPECT_EQ(from_view.num_questions, manual.num_questions);
  EXPECT_DOUBLE_EQ(from_view.mrr, manual.mrr);
  EXPECT_DOUBLE_EQ(from_view.map, manual.map);
  EXPECT_DOUBLE_EQ(from_view.average_rank, manual.average_rank);
  ASSERT_EQ(from_view.hits_at.size(), manual.hits_at.size());
  for (size_t i = 0; i < manual.hits_at.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_view.hits_at[i], manual.hits_at[i]);
  }
}

TEST(PercentImprovementTest, Basics) {
  // (4->2): 50% improvement; (2->2): 0%.
  EXPECT_NEAR(AveragePercentImprovement({4.0, 2.0}, {2.0, 2.0}), 0.25,
              1e-12);
}

TEST(PercentImprovementTest, DegradationIsNegative) {
  EXPECT_NEAR(AveragePercentImprovement({2.0}, {4.0}), -1.0, 1e-12);
}

TEST(PercentImprovementTest, EmptyAndZeroRanksHandled) {
  EXPECT_DOUBLE_EQ(AveragePercentImprovement({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(AveragePercentImprovement({0.0}, {1.0}), 0.0);
}

}  // namespace
}  // namespace kgov::qa
