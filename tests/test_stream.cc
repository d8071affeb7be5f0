// Unit tests for the streaming write path: VoteIngestQueue semantics
// (bounded backpressure, WAL-before-enqueue, dead-letter shed, close),
// SerializedVoteLog, and the StreamPipeline end to end
// (micro-batch flushes, epoch publication, the publication-skip guard and
// the first micro-batch after a restart).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/online_optimizer.h"
#include "graph/subgraph.h"
#include "stream/ingest_queue.h"
#include "stream/pipeline.h"
#include "stream/serialized_vote_log.h"
#include "telemetry/metrics.h"

namespace kgov::stream {
namespace {

using graph::WeightedDigraph;

WeightedDigraph MakeFixture() {
  WeightedDigraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.4).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.0).ok());
  return g;
}

votes::Vote MakeVote(graph::NodeId best, uint32_t id) {
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};
  vote.best_answer = best;
  return vote;
}

votes::Vote MalformedVote(uint32_t id) {
  votes::Vote vote;  // empty answer list -> every flush attempt fails
  vote.id = id;
  return vote;
}

core::OnlineOptimizerOptions SmallOptions(size_t batch) {
  core::OnlineOptimizerOptions options;
  options.batch_size = batch;
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.apply_judgment_filter = false;
  options.strategy = core::FlushStrategy::kMultiVote;
  return options;
}

class FakeVoteLog final : public votes::VoteLogSink {
 public:
  Status AppendVote(const votes::Vote& vote) override {
    if (fail_votes) return Status::IoError("injected vote-log failure");
    votes.push_back(vote);
    return Status::OK();
  }
  Status AppendDeadLetter(const votes::Vote& vote) override {
    if (fail_dead_letters) {
      return Status::IoError("injected dead-letter-log failure");
    }
    dead_letters.push_back(vote);
    return Status::OK();
  }

  bool fail_votes = false;
  bool fail_dead_letters = false;
  std::vector<votes::Vote> votes;
  std::vector<votes::Vote> dead_letters;
};

// ---------------------------------------------------------------- queue

TEST(VoteIngestQueueTest, OfferAndDrainRoundTripsFifo) {
  VoteIngestQueue queue({}, nullptr, nullptr);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Offer(MakeVote(4, i)).ok());
  }
  EXPECT_EQ(queue.size(), 3u);
  StatusOr<std::vector<votes::Vote>> first = queue.DrainUpTo(2);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 2u);
  EXPECT_EQ((*first)[0].id, 0u);
  EXPECT_EQ((*first)[1].id, 1u);
  StatusOr<std::vector<votes::Vote>> rest = queue.DrainUpTo(16);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ((*rest)[0].id, 2u);
  EXPECT_EQ(queue.GetStats().accepted, 3u);
}

TEST(VoteIngestQueueTest, TryOfferShedsWhenQueueFull) {
  VoteIngestQueueOptions options;
  options.capacity = 2;
  VoteIngestQueue queue(options, nullptr, nullptr);
  ASSERT_TRUE(queue.TryOffer(MakeVote(4, 0)).ok());
  ASSERT_TRUE(queue.TryOffer(MakeVote(4, 1)).ok());
  Status shed = queue.TryOffer(MakeVote(4, 2));
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.GetStats().rejected_queue_full, 1u);
}

TEST(VoteIngestQueueTest, OfferBlocksUntilConsumerDrains) {
  VoteIngestQueueOptions options;
  options.capacity = 1;
  VoteIngestQueue queue(options, nullptr, nullptr);
  ASSERT_TRUE(queue.Offer(MakeVote(4, 0)).ok());

  std::atomic<bool> second_accepted{false};
  std::thread producer([&]() {
    ASSERT_TRUE(queue.Offer(MakeVote(4, 1)).ok());  // blocks until drain
    second_accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_accepted.load());  // backpressure held it

  StatusOr<std::vector<votes::Vote>> drained = queue.DrainUpTo(1);
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->size(), 1u);
  producer.join();
  EXPECT_TRUE(second_accepted.load());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(VoteIngestQueueTest, CloseRejectsOffersButKeepsQueuedVotesDrainable) {
  VoteIngestQueue queue({}, nullptr, nullptr);
  ASSERT_TRUE(queue.Offer(MakeVote(4, 0)).ok());
  ASSERT_TRUE(queue.Offer(MakeVote(4, 1)).ok());
  ASSERT_TRUE(queue.Close().ok());
  EXPECT_TRUE(queue.closed());
  EXPECT_TRUE(queue.Offer(MakeVote(4, 2)).IsFailedPrecondition());
  StatusOr<std::vector<votes::Vote>> drained = queue.DrainUpTo(16);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 2u);
}

TEST(VoteIngestQueueTest, WaitAndDrainTimesOutEmptyAndWakesOnOffer) {
  VoteIngestQueue queue({}, nullptr, nullptr);
  StatusOr<std::vector<votes::Vote>> empty = queue.WaitAndDrain(4, 10);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  std::thread producer([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(queue.Offer(MakeVote(4, 7)).ok());
  });
  StatusOr<std::vector<votes::Vote>> woke = queue.WaitAndDrain(4, 0);
  producer.join();
  ASSERT_TRUE(woke.ok());
  ASSERT_EQ(woke->size(), 1u);
  EXPECT_EQ((*woke)[0].id, 7u);
}

TEST(VoteIngestQueueTest, LogAppendFailureRejectsTheVoteOutright) {
  // Durable-ack ordering: the vote reaches the WAL before the queue, so a
  // failed append must leave the queue untouched (nothing was
  // acknowledged) and a healed sink shows exactly the accepted votes.
  FakeVoteLog log;
  log.fail_votes = true;
  VoteIngestQueue queue({}, &log, nullptr);
  Status rejected = queue.Offer(MakeVote(4, 0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(rejected.IsResourceExhausted());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.GetStats().accepted, 0u);

  log.fail_votes = false;
  ASSERT_TRUE(queue.Offer(MakeVote(4, 1)).ok());
  ASSERT_EQ(log.votes.size(), 1u);
  EXPECT_EQ(log.votes[0].id, 1u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(VoteIngestQueueTest, DeadLetterFullProbeShedsWithResourceExhausted) {
  // The dead-letter backpressure satellite: a full dead-letter buffer
  // sheds new votes loudly (kResourceExhausted + stream.shed_votes)
  // instead of accepting them only to silently evict older abandoned
  // votes later.
  telemetry::Counter* shed_counter =
      telemetry::MetricRegistry::Global().GetCounter("stream.shed_votes");
  const uint64_t shed_before = shed_counter->Value();

  std::atomic<bool> full{true};
  FakeVoteLog log;
  VoteIngestQueue queue({}, &log, [&full]() { return full.load(); });
  Status shed = queue.Offer(MakeVote(4, 0));
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_TRUE(queue.TryOffer(MakeVote(4, 1)).IsResourceExhausted());
  // A shed vote was never acknowledged: not queued, not logged.
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(log.votes.empty());
  EXPECT_EQ(queue.GetStats().shed_dead_letter_full, 2u);
  EXPECT_EQ(shed_counter->Value(), shed_before + 2);

  full.store(false);
  ASSERT_TRUE(queue.Offer(MakeVote(4, 2)).ok());
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(log.votes.size(), 1u);
}

TEST(VoteIngestQueueTest, DrainAllAndRunHandsOverEverythingAtomically) {
  VoteIngestQueue queue({}, nullptr, nullptr);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Offer(MakeVote(4, i)).ok());
  }
  size_t seen = 0;
  ASSERT_TRUE(queue
                  .DrainAllAndRun([&](std::vector<votes::Vote> drained) {
                    seen = drained.size();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(queue.size(), 0u);

  // A failing fn propagates its status.
  ASSERT_TRUE(queue.Offer(MakeVote(4, 9)).ok());
  Status failed = queue.DrainAllAndRun(
      [](std::vector<votes::Vote>) { return Status::IoError("boom"); });
  EXPECT_FALSE(failed.ok());
}

TEST(VoteIngestQueueTest, InvalidOptionsFailFastNamingTheField) {
  VoteIngestQueueOptions options;
  options.capacity = 0;
  VoteIngestQueue queue(options, nullptr, nullptr);
  Status rejected = queue.Offer(MakeVote(4, 0));
  ASSERT_TRUE(rejected.IsInvalidArgument());
  EXPECT_NE(rejected.message().find("capacity"), std::string::npos);
}

// ---------------------------------------------------- serialized log

TEST(SerializedVoteLogTest, ForwardsBothChannelsToTheBaseSink) {
  FakeVoteLog base;
  SerializedVoteLog serialized(&base);
  ASSERT_TRUE(serialized.AppendVote(MakeVote(4, 1)).ok());
  ASSERT_TRUE(serialized.AppendDeadLetter(MakeVote(4, 2)).ok());
  ASSERT_EQ(base.votes.size(), 1u);
  ASSERT_EQ(base.dead_letters.size(), 1u);
  EXPECT_EQ(base.votes[0].id, 1u);
  EXPECT_EQ(base.dead_letters[0].id, 2u);
}

// ------------------------------------------------------------- pipeline

TEST(StreamPipelineTest, DrainOncePublishesAnEpoch) {
  WeightedDigraph g = MakeFixture();
  core::OnlineKgOptimizer online(g, SmallOptions(100));
  StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
      StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  StreamPipeline& pipeline = **pipeline_or;

  ASSERT_TRUE(pipeline.Offer(MakeVote(4, 1)).ok());
  StatusOr<size_t> drained = pipeline.DrainOnce(16);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained.value(), 1u);
  EXPECT_EQ(online.CurrentEpochNumber(), 1u);

  StreamPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.votes_processed, 1u);
  EXPECT_EQ(stats.micro_batches, 1u);
  EXPECT_EQ(stats.epochs_published, 1u);
  EXPECT_EQ(stats.flush_failures, 0u);
}

TEST(StreamPipelineTest, ChangedEdgesStayWithinTheVotesBall) {
  // A micro-batch moves only edges on its votes' walks and renormalizes
  // only their sources, so every edge the epoch changed starts inside the
  // vote's L-ball around its seed links and answers.
  WeightedDigraph g = MakeFixture();
  core::OnlineOptimizerOptions options = SmallOptions(100);
  core::OnlineKgOptimizer online(g, options);

  StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
      StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  StreamPipeline& pipeline = **pipeline_or;

  votes::Vote vote = MakeVote(4, 1);
  std::vector<graph::NodeId> roots = vote.answer_list;
  for (const auto& [node, weight] : vote.query.links) roots.push_back(node);
  std::vector<graph::NodeId> ball = graph::CollectOutNeighborhood(
      online.CurrentEpoch().view(), roots,
      options.optimizer.encoder.symbolic.eipd.max_length);
  std::sort(ball.begin(), ball.end());

  ASSERT_TRUE(pipeline.Offer(vote).ok());
  ASSERT_TRUE(pipeline.DrainOnce(16).ok());
  ASSERT_EQ(online.CurrentEpochNumber(), 1u);
  size_t changed = 0;
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const double before = g.edges()[e].weight;
    const double after = online.graph().edges()[e].weight;
    if (std::memcmp(&before, &after, sizeof(double)) == 0) continue;
    ++changed;
    EXPECT_TRUE(
        std::binary_search(ball.begin(), ball.end(), g.edges()[e].from))
        << "edge " << e << " changed outside the vote's ball";
  }
  EXPECT_GT(changed, 0u);
}

TEST(StreamPipelineTest, DrainOnceRefusedWhileConsumerRuns) {
  WeightedDigraph g = MakeFixture();
  core::OnlineKgOptimizer online(g, SmallOptions(100));
  StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
      StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  StreamPipeline& pipeline = **pipeline_or;
  ASSERT_TRUE(pipeline.Start().ok());
  EXPECT_TRUE(pipeline.Start().IsFailedPrecondition());
  EXPECT_TRUE(pipeline.DrainOnce(1).status().IsFailedPrecondition());
  ASSERT_TRUE(pipeline.Stop().ok());
}

TEST(StreamPipelineTest, BackgroundConsumerFoldsOffersIntoEpochs) {
  WeightedDigraph g = MakeFixture();
  core::OnlineKgOptimizer online(g, SmallOptions(100));
  StreamPipelineOptions options;
  options.micro_batch_size = 2;
  options.max_batch_delay_ms = 5;
  StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
      StreamPipeline::Create(&online, options, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  StreamPipeline& pipeline = **pipeline_or;

  ASSERT_TRUE(pipeline.Start().ok());
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(pipeline.Offer(MakeVote(4, i)).ok());
  }
  // Stop() closes the queue, joins the consumer, and processes whatever
  // remained queued - afterwards every offered vote has been applied.
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(online.TotalVotesApplied(), 6u);
  EXPECT_GE(online.CurrentEpochNumber(), 1u);
  EXPECT_EQ(pipeline.GetStats().votes_processed, 6u);
}

TEST(StreamPipelineTest, StopWithoutStartProcessesQueuedVotes) {
  WeightedDigraph g = MakeFixture();
  core::OnlineKgOptimizer online(g, SmallOptions(100));
  StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
      StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  StreamPipeline& pipeline = **pipeline_or;
  ASSERT_TRUE(pipeline.Offer(MakeVote(4, 1)).ok());
  ASSERT_TRUE(pipeline.Offer(MakeVote(4, 2)).ok());
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(online.TotalVotesApplied(), 2u);
  // Stop is idempotent, and the queue is closed afterwards.
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_TRUE(pipeline.Offer(MakeVote(4, 3)).IsFailedPrecondition());
}

TEST(StreamPipelineTest, RejectedMicroBatchPublishesNoEpoch) {
  // The publication-skip regression: a micro-batch whose votes are all
  // rejected (here: dead-lettered on their only attempt) must leave the
  // serving epoch untouched - no publication, no cache cycling.
  WeightedDigraph g = MakeFixture();
  core::OnlineOptimizerOptions options = SmallOptions(100);
  options.max_vote_attempts = 1;
  core::OnlineKgOptimizer online(g, options);
  StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
      StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  StreamPipeline& pipeline = **pipeline_or;

  std::shared_ptr<const graph::CsrSnapshot> pinned =

      online.CurrentEpoch().snapshot;
  ASSERT_TRUE(pipeline.Offer(MalformedVote(11)).ok());
  StatusOr<size_t> drained = pipeline.DrainOnce(16);
  EXPECT_FALSE(drained.ok());  // the flush failed, loudly

  EXPECT_EQ(online.CurrentEpochNumber(), 0u);
  EXPECT_EQ(online.CurrentEpoch().snapshot.get(), pinned.get());
  ASSERT_EQ(online.DeadLetters().size(), 1u);
  EXPECT_EQ(online.DeadLetters()[0].id, 11u);
  StreamPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.flush_failures, 1u);
  EXPECT_EQ(stats.epochs_published, 0u);

  // The pipeline is healthy afterwards: a good vote still flows through.
  ASSERT_TRUE(pipeline.Offer(MakeVote(4, 12)).ok());
  ASSERT_TRUE(pipeline.DrainOnce(16).ok());
  EXPECT_EQ(online.CurrentEpochNumber(), 1u);
}

TEST(StreamPipelineTest, DeadLetterBackpressureReachesProducers) {
  // End to end: once the optimizer's dead-letter buffer fills, Offer
  // sheds with kResourceExhausted instead of accepting votes the buffer
  // would silently evict.
  WeightedDigraph g = MakeFixture();
  core::OnlineOptimizerOptions options = SmallOptions(100);
  options.max_vote_attempts = 1;
  options.dead_letter_capacity = 1;
  core::OnlineKgOptimizer online(g, options);
  StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
      StreamPipeline::Create(&online, {}, nullptr);
  ASSERT_TRUE(pipeline_or.ok());
  StreamPipeline& pipeline = **pipeline_or;

  ASSERT_TRUE(pipeline.Offer(MalformedVote(1)).ok());
  EXPECT_FALSE(pipeline.DrainOnce(16).ok());
  ASSERT_EQ(online.DeadLetters().size(), 1u);
  EXPECT_TRUE(online.DeadLetterFull());

  Status shed = pipeline.Offer(MakeVote(4, 2));
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_EQ(pipeline.queue().GetStats().shed_dead_letter_full, 1u);
}

TEST(StreamPipelineTest, RestoredPendingVoteIsSolvedLikeALiveOne) {
  // Two disjoint copies of the fixture. A restart restores a negative vote
  // on the first; the first micro-batch after it drains a fresh vote on
  // the second. That micro-batch must fold in both votes exactly as a live
  // flush of the same two votes does, not hold the restored vote's edges
  // constant while counting it as applied.
  WeightedDigraph g(10);
  for (graph::NodeId base : {0u, 5u}) {
    ASSERT_TRUE(g.AddEdge(base + 0, base + 1, 0.6).ok());
    ASSERT_TRUE(g.AddEdge(base + 0, base + 2, 0.4).ok());
    ASSERT_TRUE(g.AddEdge(base + 1, base + 3, 1.0).ok());
    ASSERT_TRUE(g.AddEdge(base + 2, base + 4, 1.0).ok());
  }
  const votes::Vote restored = MakeVote(4, 1);
  votes::Vote fresh;
  fresh.id = 2;
  fresh.query.links.emplace_back(5, 1.0);
  fresh.answer_list = {8, 9};
  fresh.best_answer = 9;

  for (bool judgment : {false, true}) {
    SCOPED_TRACE(judgment ? "judgment filter on" : "judgment filter off");
    core::OnlineOptimizerOptions options = SmallOptions(100);
    options.optimizer.apply_judgment_filter = judgment;

    core::RestoredState state;
    state.pending = {restored};
    core::OnlineKgOptimizer restarted(g, options, state);
    StatusOr<std::unique_ptr<StreamPipeline>> pipeline_or =
        StreamPipeline::Create(&restarted, {}, nullptr);
    ASSERT_TRUE(pipeline_or.ok());
    ASSERT_TRUE((*pipeline_or)->Offer(fresh).ok());
    StatusOr<size_t> drained = (*pipeline_or)->DrainOnce(1);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    ASSERT_EQ(drained.value(), 1u);

    core::OnlineKgOptimizer live(g, options);
    ASSERT_TRUE(live.IngestLogged(restored).ok());
    ASSERT_TRUE(live.IngestLogged(fresh).ok());
    ASSERT_TRUE(live.Flush().ok());

    EXPECT_EQ(restarted.TotalVotesApplied(), live.TotalVotesApplied());
    ASSERT_EQ(restarted.graph().NumEdges(), live.graph().NumEdges());
    for (size_t e = 0; e < live.graph().NumEdges(); ++e) {
      const double got = restarted.graph().edges()[e].weight;
      const double want = live.graph().edges()[e].weight;
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "edge " << e << ": " << got << " vs live " << want;
    }
  }
}

}  // namespace
}  // namespace kgov::stream
