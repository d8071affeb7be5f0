#include "core/online_optimizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "graph/csr.h"
#include "ppr/eipd_engine.h"
#include "telemetry/metrics.h"

namespace kgov::core {
namespace {

using graph::WeightedDigraph;

// One-shot Phi(seed, answer) via a snapshot of the given live graph.
double Similarity(const WeightedDigraph& g, const ppr::QuerySeed& seed,
                  graph::NodeId answer, const ppr::EipdOptions& options) {
  graph::CsrSnapshot snap(g);
  ppr::EipdEngine engine(snap.View(), options);
  return engine.Scores(seed, {answer}).value()[0];
}

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

OnlineOptimizerOptions SmallOptions(size_t batch) {
  OnlineOptimizerOptions options;
  options.batch_size = batch;
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.apply_judgment_filter = false;
  options.strategy = FlushStrategy::kMultiVote;
  return options;
}

TEST(OnlineOptimizerTest, BuffersUntilBatchFull) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(3));
  for (uint32_t i = 0; i < 2; ++i) {
    Result<FlushReport> r = online.AddVote(MakeVote(4, i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->votes_flushed, 0u);
  }
  EXPECT_EQ(online.PendingVotes(), 2u);
  Result<FlushReport> r = online.AddVote(MakeVote(4, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->votes_flushed, 3u);
  EXPECT_EQ(online.PendingVotes(), 0u);
  EXPECT_EQ(online.TotalVotesApplied(), 3u);
}

TEST(OnlineOptimizerTest, FlushChangesGraph) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(10));
  ASSERT_TRUE(online.AddVote(MakeVote(4, 0)).ok());
  Result<FlushReport> r = online.Flush();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->votes_flushed, 1u);
  // The voted answer now ranks first on the evolved graph.
  ppr::EipdOptions eipd;
  eipd.max_length = 4;
  votes::Vote vote = MakeVote(4, 0);
  EXPECT_GT(Similarity(online.graph(), vote.query, 4, eipd),
            Similarity(online.graph(), vote.query, 3, eipd));
}

TEST(OnlineOptimizerTest, EmptyFlushIsNoOp) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(5));
  Result<FlushReport> r = online.Flush();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->votes_flushed, 0u);
}

TEST(OnlineOptimizerTest, SnapshotStableAcrossFlushes) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(10));
  std::shared_ptr<const graph::CsrSnapshot> before =
      online.CurrentEpoch().snapshot;
  ppr::EipdEngine before_eval(before->View(), {.max_length = 4});
  votes::Vote vote = MakeVote(4, 0);
  double s4_before = before_eval.Scores(vote.query, {4}).value()[0];

  ASSERT_TRUE(online.AddVote(vote).ok());
  ASSERT_TRUE(online.Flush().ok());

  // Old snapshot still serves old scores; the new one reflects the flush.
  EXPECT_DOUBLE_EQ(before_eval.Scores(vote.query, {4}).value()[0],
                   s4_before);
  std::shared_ptr<const graph::CsrSnapshot> after =
      online.CurrentEpoch().snapshot;
  EXPECT_NE(before.get(), after.get());
  ppr::EipdEngine after_eval(after->View(), {.max_length = 4});
  EXPECT_GT(after_eval.Scores(vote.query, {4}).value()[0], s4_before);
}

TEST(OnlineOptimizerTest, FailedFlushPreservesVotes) {
  // Regression: a failed flush must NOT silently drop buffered votes.
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(1);
  options.max_vote_attempts = 3;
  OnlineKgOptimizer online(g, options);
  votes::Vote malformed;  // empty answer list -> nothing encodes
  Result<FlushReport> r = online.AddVote(malformed);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(online.PendingVotes(), 1u);  // preserved, not dropped
  EXPECT_FALSE(online.LastFlushStatus().ok());
  EXPECT_TRUE(online.DeadLetters().empty());
}

TEST(OnlineOptimizerTest, ExhaustedVotesMoveToDeadLetterBuffer) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(1);
  options.max_vote_attempts = 2;
  OnlineKgOptimizer online(g, options);
  votes::Vote malformed;
  malformed.id = 77;
  EXPECT_FALSE(online.AddVote(malformed).ok());  // attempt 1: re-queued
  EXPECT_EQ(online.PendingVotes(), 1u);
  EXPECT_FALSE(online.Flush().ok());  // attempt 2: out of attempts
  EXPECT_EQ(online.PendingVotes(), 0u);
  ASSERT_EQ(online.DeadLetters().size(), 1u);
  EXPECT_EQ(online.DeadLetters().front().id, 77u);
  // The pipeline is healthy afterwards.
  Result<FlushReport> good = online.AddVote(MakeVote(4, 1));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->votes_flushed, 1u);
  EXPECT_TRUE(online.LastFlushStatus().ok());
}

TEST(OnlineOptimizerTest, EpochAdvancesOnlyOnSuccessfulFlush) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(10);
  options.max_vote_attempts = 5;
  OnlineKgOptimizer online(g, options);
  EXPECT_EQ(online.serving().epoch, 0u);

  // An empty flush publishes nothing.
  ASSERT_TRUE(online.Flush().ok());
  EXPECT_EQ(online.serving().epoch, 0u);

  ASSERT_TRUE(online.AddVote(MakeVote(4, 0)).ok());
  ASSERT_TRUE(online.Flush().ok());
  EXPECT_EQ(online.serving().epoch, 1u);

  // A failed flush leaves the serving epoch untouched.
  std::shared_ptr<const graph::CsrSnapshot> pinned =
      online.CurrentEpoch().snapshot;
  votes::Vote malformed;  // empty answer list -> nothing encodes
  ASSERT_TRUE(online.AddVote(malformed).ok());  // buffered, batch not full
  EXPECT_FALSE(online.Flush().ok());
  EXPECT_EQ(online.serving().epoch, 1u);
  EXPECT_EQ(online.CurrentEpoch().snapshot.get(), pinned.get());
}

TEST(OnlineOptimizerTest, BitwiseUnchangedFlushPublishesNoEpoch) {
  // The conflicting pair below is applied (both votes settle in an OK
  // flush), but its solve reproduces every weight bit for bit, so the
  // flush publishes nothing: no new epoch, the same snapshot, one skip.
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(10));
  telemetry::Counter* skips =
      telemetry::MetricRegistry::Global().GetCounter("online.epoch_skips");
  const uint64_t skips_before = skips->Value();
  const std::shared_ptr<const graph::CsrSnapshot> pinned =
      online.CurrentEpoch().snapshot;

  ASSERT_TRUE(online.AddVote(MakeVote(4, 10)).ok());
  ASSERT_TRUE(online.AddVote(MakeVote(3, 11)).ok());
  Result<FlushReport> report = online.Flush();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->votes_flushed, 2u);
  EXPECT_EQ(online.TotalVotesApplied(), 2u);
  EXPECT_FALSE(report->epoch_published);
  EXPECT_EQ(online.CurrentEpochNumber(), 0u);
  EXPECT_EQ(online.CurrentEpoch().snapshot.get(), pinned.get());
  EXPECT_EQ(skips->Value() - skips_before, 1u);
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const double before = g.edges()[e].weight;
    const double after = online.graph().edges()[e].weight;
    EXPECT_EQ(std::memcmp(&before, &after, sizeof(double)), 0)
        << "edge " << e;
  }
}

TEST(OnlineOptimizerTest, PinnedEpochServesIdenticalScoresAcrossFlushes) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(10));
  ServingEpoch pinned = online.serving();
  ppr::EipdEngine pinned_engine(pinned.view(), {.max_length = 4});
  votes::Vote vote = MakeVote(4, 0);
  std::vector<double> before =
      pinned_engine.Scores(vote.query, vote.answer_list).value();

  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(online.AddVote(MakeVote(4, i)).ok());
    ASSERT_TRUE(online.Flush().ok());
  }
  EXPECT_EQ(online.serving().epoch, 3u);

  // The pinned epoch's view is frozen: identical scores, while the latest
  // epoch reflects the optimized graph.
  std::vector<double> after =
      pinned_engine.Scores(vote.query, vote.answer_list).value();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(after[i], before[i]);
  }
  ServingEpoch latest = online.serving();
  ppr::EipdEngine latest_engine(latest.view(), {.max_length = 4});
  EXPECT_GT(latest_engine.Scores(vote.query, {4}).value()[0],
            pinned_engine.Scores(vote.query, {4}).value()[0]);
}

TEST(OnlineOptimizerTest, InvalidOptionsFailFastNamingTheField) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(0);  // batch_size = 0
  OnlineKgOptimizer online(g, options);
  Result<FlushReport> r = online.AddVote(MakeVote(4, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("batch_size"), std::string::npos);
  EXPECT_FALSE(online.Flush().ok());
  // Serving still works: the initial epoch published regardless.
  EXPECT_NE(online.serving().snapshot, nullptr);
}

TEST(OnlineOptimizerTest, PinnedEpochImmutableUnderHundredConcurrentFlushes) {
  // The epoch-swap ordering contract: a reader that pinned an epoch keeps
  // serving bitwise-identical scores no matter how many flushes publish
  // newer epochs underneath, and CurrentEpochNumber() is monotone with
  // CurrentEpoch() never trailing an observed number.
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(10));
  ServingEpoch pinned = online.CurrentEpoch();
  ASSERT_EQ(pinned.epoch, 0u);
  votes::Vote probe = MakeVote(4, 0);
  ppr::EipdEngine reference(pinned.view(), {.max_length = 4});
  StatusOr<std::vector<double>> before_or =
      reference.Scores(probe.query, probe.answer_list);
  ASSERT_TRUE(before_or.ok());
  const std::vector<double> before = before_or.value();

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      ppr::EipdEngine engine(pinned.view(), {.max_length = 4});
      ppr::PropagationWorkspace ws;
      uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<std::vector<double>> now =
            engine.Scores(probe.query, probe.answer_list, &ws);
        if (!now.ok() || now.value() != before) {  // bitwise comparison
          violations.fetch_add(1);
          break;
        }
        uint64_t number = online.CurrentEpochNumber();
        if (number < last_seen ||
            online.CurrentEpoch().epoch < number) {
          violations.fetch_add(1);
          break;
        }
        last_seen = number;
      }
    });
  }

  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(online.AddVote(MakeVote(4, i)).ok());
    ASSERT_TRUE(online.Flush().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(online.CurrentEpochNumber(), 100u);
  EXPECT_EQ(online.serving().epoch, 100u);
  // The pinned epoch is still epoch 0 and still serves the same bits.
  EXPECT_EQ(pinned.epoch, 0u);
  StatusOr<std::vector<double>> after =
      reference.Scores(probe.query, probe.answer_list);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before);
}

// In-memory VoteLogSink fake: captures appends and can be told to fail
// either channel, so the tests can pin down the acknowledge-before-buffer
// and persist-before-drop contracts without touching a disk.
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

votes::Vote MalformedVote(uint32_t id) {
  votes::Vote vote;  // empty answer list -> every flush attempt fails
  vote.id = id;
  return vote;
}

TEST(OnlineOptimizerTest, DeadLetterBufferEvictsOldestAtExactCapacity) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(1);
  options.max_vote_attempts = 1;  // first failure dead-letters
  options.dead_letter_capacity = 2;
  OnlineKgOptimizer online(g, options);
  telemetry::Counter* evictions =
      telemetry::MetricRegistry::Global().GetCounter(
          "online.dead_letter_evictions");
  const uint64_t evictions_before = evictions->Value();

  EXPECT_FALSE(online.AddVote(MalformedVote(1)).ok());
  EXPECT_FALSE(online.AddVote(MalformedVote(2)).ok());
  // At exactly dead_letter_capacity: both kept, nothing evicted.
  ASSERT_EQ(online.DeadLetters().size(), 2u);
  EXPECT_EQ(online.DeadLetters()[0].id, 1u);
  EXPECT_EQ(online.DeadLetters()[1].id, 2u);
  EXPECT_EQ(evictions->Value(), evictions_before);

  // One past capacity: the OLDEST entry goes, order is preserved, and the
  // eviction is counted.
  EXPECT_FALSE(online.AddVote(MalformedVote(3)).ok());
  ASSERT_EQ(online.DeadLetters().size(), 2u);
  EXPECT_EQ(online.DeadLetters()[0].id, 2u);
  EXPECT_EQ(online.DeadLetters()[1].id, 3u);
  EXPECT_EQ(evictions->Value(), evictions_before + 1);
}

TEST(OnlineOptimizerTest, VoteLogFailureRejectsTheVoteOutright) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOptions(3));
  FakeVoteLog log;
  log.fail_votes = true;
  online.SetVoteLog(&log);
  // The WAL could not make the vote durable, so it must NOT be
  // acknowledged - and must not sit in the in-memory buffer either.
  Result<FlushReport> r = online.AddVote(MakeVote(4, 1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(online.PendingVotes(), 0u);

  log.fail_votes = false;
  ASSERT_TRUE(online.AddVote(MakeVote(4, 2)).ok());
  EXPECT_EQ(online.PendingVotes(), 1u);
  ASSERT_EQ(log.votes.size(), 1u);
  EXPECT_EQ(log.votes[0].id, 2u);
}

TEST(OnlineOptimizerTest, DeadLettersPersistToVoteLogImmediately) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(1);
  options.max_vote_attempts = 1;
  FakeVoteLog log;
  telemetry::Counter* persisted =
      telemetry::MetricRegistry::Global().GetCounter(
          "durability.dead_letter_persisted");
  const uint64_t persisted_before = persisted->Value();
  {
    OnlineKgOptimizer online(g, options);
    online.SetVoteLog(&log);
    EXPECT_FALSE(online.AddVote(MalformedVote(9)).ok());
    ASSERT_EQ(online.DeadLetters().size(), 1u);
    ASSERT_EQ(log.dead_letters.size(), 1u);
    EXPECT_EQ(log.dead_letters[0].id, 9u);
    EXPECT_EQ(persisted->Value(), persisted_before + 1);
  }
  // Destruction must not double-append the already-persisted entry.
  EXPECT_EQ(log.dead_letters.size(), 1u);
  EXPECT_EQ(persisted->Value(), persisted_before + 1);
}

TEST(OnlineOptimizerTest, DestructorFlushesUnpersistedDeadLetters) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(1);
  options.max_vote_attempts = 1;
  FakeVoteLog log;
  telemetry::Counter* persisted =
      telemetry::MetricRegistry::Global().GetCounter(
          "durability.dead_letter_persisted");
  const uint64_t persisted_before = persisted->Value();
  {
    OnlineKgOptimizer online(g, options);
    online.SetVoteLog(&log);
    // The dead-letter append fails at dead-letter time...
    log.fail_dead_letters = true;
    EXPECT_FALSE(online.AddVote(MalformedVote(13)).ok());
    ASSERT_EQ(online.DeadLetters().size(), 1u);
    EXPECT_TRUE(log.dead_letters.empty());
    // ...and the sink heals before shutdown: the destructor retries.
    log.fail_dead_letters = false;
  }
  ASSERT_EQ(log.dead_letters.size(), 1u);
  EXPECT_EQ(log.dead_letters[0].id, 13u);
  EXPECT_EQ(persisted->Value(), persisted_before + 1);
}

TEST(OnlineOptimizerTest, RestoredStateResumesEpochPendingAndDeadLetters) {
  WeightedDigraph g = MakeFixture();
  RestoredState restored;
  restored.epoch = 41;
  // Both pending votes ask for answer 4, so their flush moves weights and
  // publishes (a flush that leaves every weight bitwise unchanged keeps
  // the current epoch).
  restored.pending = {MakeVote(4, 10), MakeVote(4, 11)};
  restored.dead_letters = {MakeVote(4, 12)};
  FakeVoteLog log;
  {
    OnlineKgOptimizer online(g, SmallOptions(100), restored);
    online.SetVoteLog(&log);
    EXPECT_EQ(online.CurrentEpochNumber(), 41u);
    EXPECT_EQ(online.PendingVotes(), 2u);
    ASSERT_EQ(online.DeadLetters().size(), 1u);
    EXPECT_EQ(online.DeadLetters()[0].id, 12u);
    // A successful flush of the restored pending votes advances the epoch
    // past the restored number, never backwards.
    ASSERT_TRUE(online.Flush().ok());
    EXPECT_EQ(online.CurrentEpochNumber(), 42u);
    EXPECT_EQ(online.PendingVotes(), 0u);
  }
  // Restored dead letters were durable before the crash; the destructor
  // must not append them to the new WAL again.
  EXPECT_TRUE(log.dead_letters.empty());
}

TEST(OnlineOptimizerTest, RestoredDeadLettersTrimToCapacityOldestFirst) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(100);
  options.dead_letter_capacity = 2;
  RestoredState restored;
  restored.epoch = 1;
  restored.dead_letters = {MakeVote(4, 1), MakeVote(4, 2), MakeVote(4, 3)};
  OnlineKgOptimizer online(g, options, restored);
  ASSERT_EQ(online.DeadLetters().size(), 2u);
  EXPECT_EQ(online.DeadLetters()[0].id, 2u);
  EXPECT_EQ(online.DeadLetters()[1].id, 3u);
}

TEST(OnlineOptimizerTest, SplitMergeStrategyWorks) {
  WeightedDigraph g = MakeFixture();
  OnlineOptimizerOptions options = SmallOptions(2);
  options.strategy = FlushStrategy::kSplitMerge;
  OnlineKgOptimizer online(g, options);
  ASSERT_TRUE(online.AddVote(MakeVote(4, 0)).ok());
  Result<FlushReport> r = online.AddVote(MakeVote(4, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->votes_flushed, 2u);
  EXPECT_GT(r->constraints_total, 0);
}

}  // namespace
}  // namespace kgov::core
