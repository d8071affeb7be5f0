// Tests for the deterministic schedule explorer (common/sched.h): the
// exhaustive bounded-preemption enumeration, racy-invariant detection
// with replayable tokens, modeled deadlock detection, the PCT fallback,
// and the ported concurrency invariants from the streaming path and the
// thread pool (ingest ack==logged under shed, DrainAllAndRun producer
// lockout, ThreadPool shutdown-vs-submit).

#include "common/sched.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "stream/ingest_queue.h"
#include "votes/vote.h"
#include "votes/vote_log.h"

namespace kgov {
namespace {

#if !defined(KGOV_LOCK_DEBUG)

TEST(SchedExplorer, SkippedWithoutLockDebug) {
  GTEST_SKIP() << "scheduler hooks compiled out (KGOV_LOCK_DEBUG=OFF)";
}

#else  // KGOV_LOCK_DEBUG

// Pulls the replay token out of a failure status message
// ("...; schedule token: x:0,1,0 (from p:abc)").
std::string ExtractToken(const Status& status) {
  const std::string text = status.ToString();
  const std::string marker = "schedule token: ";
  const size_t at = text.find(marker);
  if (at == std::string::npos) return "";
  size_t end = text.find(' ', at + marker.size());
  if (end == std::string::npos) end = text.size();
  return text.substr(at + marker.size(), end - at - marker.size());
}

TEST(SchedExplorer, ValidatesOptions) {
  sched::ExplorerOptions options;
  options.preemption_bound = -1;
  sched::Explorer explorer(options);
  Status status = explorer.Explore([] { return sched::Scenario{}; });
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("preemption_bound"), std::string::npos);
}

TEST(SchedExplorer, SingleThreadScenarioPasses) {
  sched::ExplorerOptions options;
  options.random_schedules = 2;
  sched::Explorer explorer(options);
  Status status = explorer.Explore([] {
    auto hits = std::make_shared<int>(0);
    sched::Scenario s;
    s.threads.push_back([hits] {
      sched::TestYield();
      ++*hits;
      sched::TestYield();
    });
    s.check = [hits]() -> Status {
      if (*hits != 1) return Status::Internal("hits != 1");
      return Status::OK();
    };
    return s;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(explorer.GetStats().bound_exhausted);
  EXPECT_GE(explorer.GetStats().schedules_run, 1);
}

TEST(SchedExplorer, EnumerationIsDeterministic) {
  auto factory = [] {
    auto counter = std::make_shared<std::atomic<int>>(0);
    sched::Scenario s;
    for (int t = 0; t < 3; ++t) {
      s.threads.push_back([counter] {
        sched::TestYield();
        counter->fetch_add(1);
        sched::TestYield();
      });
    }
    s.check = [counter]() -> Status {
      return counter->load() == 3 ? Status::OK()
                                  : Status::Internal("lost increment");
    };
    return s;
  };

  sched::ExplorerOptions options;
  options.preemption_bound = 1;
  options.random_schedules = 4;
  sched::Explorer first(options);
  ASSERT_TRUE(first.Explore(factory).ok());
  sched::Explorer second(options);
  ASSERT_TRUE(second.Explore(factory).ok());
  EXPECT_EQ(first.GetStats().schedules_run, second.GetStats().schedules_run);
  EXPECT_EQ(first.GetStats().exhaustive_schedules,
            second.GetStats().exhaustive_schedules);
  EXPECT_EQ(first.GetStats().max_decision_points,
            second.GetStats().max_decision_points);
  EXPECT_TRUE(first.GetStats().bound_exhausted);
}

// The classic lost update: read, yield, write-back. A sequential run
// never loses an increment; only a preemption between the read and the
// write does. The explorer must find it and hand back a replayable
// schedule token that reproduces it.
TEST(SchedExplorer, CatchesLostUpdateAndReplays) {
  auto factory = [] {
    auto value = std::make_shared<int>(0);
    sched::Scenario s;
    for (int t = 0; t < 2; ++t) {
      s.threads.push_back([value] {
        const int read = *value;
        sched::TestYield();
        *value = read + 1;
      });
    }
    s.check = [value]() -> Status {
      return *value == 2 ? Status::OK()
                         : Status::Internal("lost update: value = " +
                                            std::to_string(*value));
    };
    return s;
  };

  sched::ExplorerOptions options;
  options.preemption_bound = 2;
  sched::Explorer explorer(options);
  Status status = explorer.Explore(factory);
  ASSERT_FALSE(status.ok()) << "the lost update was not found";
  EXPECT_NE(status.ToString().find("lost update"), std::string::npos)
      << status.ToString();

  const std::string token = ExtractToken(status);
  ASSERT_FALSE(token.empty()) << status.ToString();
  ASSERT_EQ(token.rfind("x:", 0), 0u) << token;

  // The token replays the exact interleaving, so the same invariant
  // fails again - this is the debugging loop the explorer promises.
  sched::Explorer replayer(options);
  Status replay = replayer.Replay(token, factory);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.ToString().find("lost update"), std::string::npos)
      << replay.ToString();
}

TEST(SchedExplorer, SequentialScheduleMasksTheSameBug) {
  // Control for the test above: the default (no-preemption) schedule
  // alone does NOT expose the lost update - that is why exploration
  // exists at all.
  auto factory = [] {
    auto value = std::make_shared<int>(0);
    sched::Scenario s;
    for (int t = 0; t < 2; ++t) {
      s.threads.push_back([value] {
        const int read = *value;
        sched::TestYield();
        *value = read + 1;
      });
    }
    s.check = [value]() -> Status {
      return *value == 2 ? Status::OK() : Status::Internal("lost update");
    };
    return s;
  };
  sched::Explorer explorer;
  EXPECT_TRUE(explorer.Replay("x:", factory).ok());
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
TEST(SchedExplorer, DISABLED_DeadlockIsDetectedAndReported) {
#else
// A modeled deadlock abandons its threads and scenario state (leaked by
// design, see sched.h) - the test is skipped under leak-checking
// sanitizers.
TEST(SchedExplorer, DeadlockIsDetectedAndReported) {
#endif
  auto factory = [] {
    auto a = std::make_shared<Mutex>();
    auto b = std::make_shared<Mutex>();
    sched::Scenario s;
    s.threads.push_back([a, b] {
      MutexLock hold_a(*a);
      MutexLock hold_b(*b);
    });
    s.threads.push_back([a, b] {
      MutexLock hold_b(*b);
      MutexLock hold_a(*a);
    });
    s.check = [] { return Status::OK(); };
    return s;
  };

  sched::ExplorerOptions options;
  options.preemption_bound = 2;
  options.random_schedules = 0;
  sched::Explorer explorer(options);
  Status status = explorer.Explore(factory);
  ASSERT_FALSE(status.ok()) << "AB-BA deadlock was not produced";
  EXPECT_NE(status.ToString().find("deadlock"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(ExtractToken(status).empty()) << status.ToString();
}

TEST(SchedExplorer, PctPhaseIsDeterministicPerSeed) {
  auto factory = [] {
    auto counter = std::make_shared<std::atomic<int>>(0);
    sched::Scenario s;
    for (int t = 0; t < 2; ++t) {
      s.threads.push_back([counter] {
        sched::TestYield();
        counter->fetch_add(1);
      });
    }
    s.check = [counter]() -> Status {
      return counter->load() == 2 ? Status::OK() : Status::Internal("lost");
    };
    return s;
  };
  sched::ExplorerOptions options;
  options.seed = 1234;
  options.random_schedules = 8;
  sched::Explorer first(options);
  ASSERT_TRUE(first.Explore(factory).ok());
  sched::Explorer second(options);
  ASSERT_TRUE(second.Explore(factory).ok());
  EXPECT_EQ(first.GetStats().random_schedules, 8);
  EXPECT_EQ(first.GetStats().schedules_run, second.GetStats().schedules_run);
}

// ---------------------------------------------------------------------------
// Ported invariants from the streaming path and the thread pool.
// ---------------------------------------------------------------------------

// Counts durable acknowledgments so ack==logged can be asserted exactly.
class CountingVoteLog final : public votes::VoteLogSink {
 public:
  Status AppendVote(const votes::Vote& /*vote*/) override {
    appended.fetch_add(1);
    return Status::OK();
  }
  Status AppendDeadLetter(const votes::Vote& /*vote*/) override {
    return Status::OK();
  }
  std::atomic<int> appended{0};
};

votes::Vote TestVote(uint32_t id) {
  votes::Vote vote;
  vote.id = id;
  vote.query.links.emplace_back(0, 1.0);
  vote.answer_list = {3, 4};
  vote.best_answer = 3;
  return vote;
}

// VoteIngestQueue under shed pressure: every Offer that returned OK was
// logged, every shed Offer was NOT - no interleaving may acknowledge a
// vote without its WAL append or log a vote that was then shed.
TEST(SchedExplorer, IngestQueueAckEqualsLoggedUnderShed) {
  struct State {
    CountingVoteLog log;
    std::unique_ptr<stream::VoteIngestQueue> queue;
    std::atomic<int> acked{0};
    std::atomic<int> shed{0};
    std::atomic<int> drained{0};
  };
  auto factory = [] {
    auto st = std::make_shared<State>();
    stream::VoteIngestQueueOptions options;
    options.capacity = 1;  // the second concurrent producer sheds
    st->queue = std::make_unique<stream::VoteIngestQueue>(options, &st->log,
                                                          nullptr);

    auto produce = [st](uint32_t id) {
      Status status = st->queue->TryOffer(TestVote(id));
      if (status.ok()) {
        st->acked.fetch_add(1);
      } else if (status.code() == StatusCode::kResourceExhausted) {
        st->shed.fetch_add(1);
      }
    };

    sched::Scenario s;
    s.threads.push_back([=] { produce(1); });
    s.threads.push_back([=] { produce(2); });
    s.threads.push_back([st] {
      auto drained = st->queue->DrainUpTo(8);
      if (drained.ok()) st->drained.fetch_add(drained.value().size());
      sched::TestYield();
      drained = st->queue->DrainUpTo(8);
      if (drained.ok()) st->drained.fetch_add(drained.value().size());
    });
    s.check = [st]() -> Status {
      if (st->acked.load() + st->shed.load() != 2) {
        return Status::Internal("a producer neither acked nor shed");
      }
      if (st->acked.load() != st->log.appended.load()) {
        return Status::Internal(
            "ack != logged: acked " + std::to_string(st->acked.load()) +
            ", logged " + std::to_string(st->log.appended.load()));
      }
      const int leftover = static_cast<int>(st->queue->size());
      if (st->drained.load() + leftover != st->acked.load()) {
        return Status::Internal("acknowledged votes went missing");
      }
      return Status::OK();
    };
    return s;
  };

  sched::ExplorerOptions options;
  options.preemption_bound = 2;
  options.max_schedules = 1024;
  options.random_schedules = 8;
  sched::Explorer explorer(options);
  Status status = explorer.Explore(factory);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(explorer.GetStats().schedules_run, 1);
}

// DrainAllAndRun holds the queue mutex across fn, and producer WAL
// appends nest under that same mutex - so every vote logged by the time
// fn runs is IN fn's drained batch. That lockout is what makes "logged
// implies visible to the checkpoint" sound: a checkpoint can never
// garbage-collect a WAL segment holding a vote it did not fold in.
TEST(SchedExplorer, DrainAllAndRunLocksProducersOut) {
  struct State {
    CountingVoteLog log;
    std::unique_ptr<stream::VoteIngestQueue> queue;
    std::atomic<int> acked{0};
    std::atomic<int> checkpoint_saw{0};
    std::atomic<bool> logged_vote_missing{false};
  };
  auto factory = [] {
    auto st = std::make_shared<State>();
    stream::VoteIngestQueueOptions options;
    options.capacity = 8;
    st->queue =
        std::make_unique<stream::VoteIngestQueue>(options, &st->log, nullptr);

    sched::Scenario s;
    s.threads.push_back([st] {
      for (uint32_t id = 1; id <= 2; ++id) {
        if (st->queue->Offer(TestVote(id)).ok()) st->acked.fetch_add(1);
      }
    });
    s.threads.push_back([st] {
      st->queue
          ->DrainAllAndRun([st](std::vector<votes::Vote> drained) {
            // Producers are locked out for the whole body: the logged
            // count is frozen and every logged vote must be in `drained`.
            // The yields invite a producer to sneak an append in - with
            // the lockout intact it can only block on the queue mutex.
            sched::TestYield();
            sched::TestYield();
            if (static_cast<int>(drained.size()) != st->log.appended.load()) {
              st->logged_vote_missing.store(true);
            }
            st->checkpoint_saw.fetch_add(static_cast<int>(drained.size()));
            return Status::OK();
          })
          .IgnoreError();
    });
    s.check = [st]() -> Status {
      if (st->logged_vote_missing.load()) {
        return Status::Internal(
            "a logged vote was invisible to the checkpoint drain");
      }
      const int leftover = static_cast<int>(st->queue->size());
      if (st->checkpoint_saw.load() + leftover != st->acked.load()) {
        return Status::Internal("acknowledged votes went missing");
      }
      return Status::OK();
    };
    return s;
  };

  sched::ExplorerOptions options;
  options.preemption_bound = 2;
  options.max_schedules = 1024;
  options.random_schedules = 8;
  sched::Explorer explorer(options);
  Status status = explorer.Explore(factory);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(explorer.GetStats().schedules_run, 1);
}

// ThreadPool shutdown vs submit: a task that re-submits work while the
// pool's destructor is draining gets its child run to completion -
// either via the drain or inline on the submitter - and never a dropped
// task or a broken future. Workers are free (unregistered) threads, so
// the scenario is impure.
TEST(SchedExplorer, ThreadPoolShutdownVsSubmitNeverDropsTasks) {
  struct State {
    std::atomic<int> parent_value{0};
    std::atomic<int> child_value{0};
    std::atomic<bool> futures_ready{false};
  };
  auto factory = [] {
    auto st = std::make_shared<State>();
    sched::Scenario s;
    s.threads.push_back([st] {
      auto pool = std::make_unique<ThreadPool>(1);
      ThreadPool* raw = pool.get();
      std::future<int> child;
      auto parent = raw->Submit([raw, &child]() {
        // Runs on the worker, racing the destructor below: the re-submit
        // must observe shutdown (inline) or win the enqueue (drained).
        child = raw->Submit([] { return 17; });
        return 4;
      });
      sched::TestYield();
      pool.reset();  // shutdown drains; join returns only when idle
      st->parent_value.store(parent.get());
      st->child_value.store(child.get());
      st->futures_ready.store(true);
    });
    s.check = [st]() -> Status {
      if (!st->futures_ready.load()) {
        return Status::Internal("futures never became ready");
      }
      if (st->parent_value.load() != 4 || st->child_value.load() != 17) {
        return Status::Internal("a submitted task was dropped");
      }
      return Status::OK();
    };
    return s;
  };

  sched::ExplorerOptions options;
  options.pure = false;  // pool workers are free threads
  options.preemption_bound = 1;
  options.random_schedules = 4;
  sched::Explorer explorer(options);
  Status status = explorer.Explore(factory);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

#endif  // KGOV_LOCK_DEBUG

}  // namespace
}  // namespace kgov
