// Tests for the runtime lock-rank deadlock detector (common/lock_rank.h):
// rank inversions, acquired-after cycles among unranked locks, the
// soft-count / telemetry mirror, the abort mode, try-lock attempt
// checking, DOT export, and a real serve+stream workload staying clean
// under tracking.

#include "common/lock_rank.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.h"
#include "common/lock_ranks.h"
#include "common/thread_annotations.h"
#include "serve/result_cache.h"
#include "stream/ingest_queue.h"
#include "telemetry/metrics.h"
#include "votes/vote.h"

namespace kgov {
namespace {

#if !defined(KGOV_LOCK_DEBUG)

TEST(LockRank, SkippedWithoutLockDebug) {
  GTEST_SKIP() << "mutex hooks compiled out (KGOV_LOCK_DEBUG=OFF)";
}

#else  // KGOV_LOCK_DEBUG

// Every test runs in soft-count mode with fresh counters and a fresh
// acquired-after graph, so scenarios cannot bleed into each other.
class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Force the telemetry violation handler to be installed before any
    // violation fires (it is installed by MetricRegistry::Global()).
    telemetry::MetricRegistry::Global().GetCounter(
        "contracts.lock_order_violations");
    contracts::ResetViolationCount();
    contracts::ResetLockOrderViolationCount();
    lockrank::ResetGraph();
    lockrank::ResetThreadState();
  }

  void TearDown() override {
    lockrank::ResetThreadState();
    lockrank::ResetGraph();
  }

  contracts::ScopedCheckMode soft_{contracts::CheckMode::kSoftCount};
};

TEST_F(LockRankTest, DescendingOrderIsClean) {
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 0u);
}

TEST_F(LockRankTest, RankInversionCaught) {
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_inner(inner);
    MutexLock hold_outer(outer);  // ascending rank: inversion
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

TEST_F(LockRankTest, EqualRanksMayNotNest) {
  Mutex a{KGOV_LOCK_RANK(kEpochPublish)};
  Mutex b{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

// The cycle tests below intentionally acquire the same mutex pair in both
// orders; ThreadSanitizer's own lock-order-inversion detector reports the
// same (deliberate) cycle and fails the run, so they only run unsanitized
// - TSan covering the same inversions is the point, not a gap.
#if defined(__SANITIZE_THREAD__)
TEST_F(LockRankTest, DISABLED_UnrankedTwoLockCycleCaught) {
#else
TEST_F(LockRankTest, UnrankedTwoLockCycleCaught) {
#endif
  Mutex a;
  Mutex b;
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);  // records a -> b
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 0u);
  {
    MutexLock hold_b(b);
    MutexLock hold_a(a);  // b -> a closes the cycle
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

#if defined(__SANITIZE_THREAD__)
TEST_F(LockRankTest, DISABLED_CycleThroughIntermediateLockCaught) {
#else
TEST_F(LockRankTest, CycleThroughIntermediateLockCaught) {
#endif
  Mutex a;
  Mutex b;
  Mutex c;
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);  // a -> b
  }
  {
    MutexLock hold_b(b);
    MutexLock hold_c(c);  // b -> c
  }
  {
    MutexLock hold_c(c);
    MutexLock hold_a(a);  // c -> a: cycle a -> b -> c -> a
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

TEST_F(LockRankTest, RepeatedInversionReportsOnce) {
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  for (int i = 0; i < 5; ++i) {
    MutexLock hold_inner(inner);
    MutexLock hold_outer(outer);
  }
  // The (held, acquired) pair dedups: a stable inversion on a hot path
  // pages once, not once per iteration.
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

TEST_F(LockRankTest, TryLockAttemptIsChecked) {
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_inner(inner);
    // The try-lock succeeds (no contention) but the ATTEMPT is the
    // latent deadlock, so the violation fires anyway.
    ASSERT_TRUE(outer.TryLock());
    outer.Unlock();
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

TEST_F(LockRankTest, SharedMutexReadersAreTracked) {
  SharedMutex pin{KGOV_LOCK_RANK(kQueryEpochPin)};
  Mutex queue{KGOV_LOCK_RANK(kStreamQueue)};
  lockrank::ScopedTracking tracking;
  {
    ReaderMutexLock hold_pin(pin);
    MutexLock hold_queue(queue);  // 900 above 800: inversion
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

TEST_F(LockRankTest, ViolationCountersAndTelemetryMirror) {
  telemetry::Counter* mirrored = telemetry::MetricRegistry::Global().GetCounter(
      "contracts.lock_order_violations");
  mirrored->Reset();

  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_inner(inner);
    MutexLock hold_outer(outer);
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
  // Lock-order violations also count as plain soft violations.
  EXPECT_EQ(contracts::ViolationCount(), 1u);
  EXPECT_EQ(mirrored->Value(), 1u);
}

TEST_F(LockRankTest, HeldLocksDescriptionNamesRanks) {
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  EXPECT_EQ(lockrank::HeldLocksDescription(), "");
  {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
    const std::string stack = lockrank::HeldLocksDescription();
    EXPECT_NE(stack.find("kStreamQueue"), std::string::npos) << stack;
    EXPECT_NE(stack.find("kEpochPublish"), std::string::npos) << stack;
  }
  EXPECT_EQ(lockrank::HeldLocksDescription(), "");
}

TEST_F(LockRankTest, DotDumpShowsNodesEdgesAndViolations) {
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  {
    MutexLock hold_inner(inner);
    MutexLock hold_outer(outer);
  }
  const std::string dot = lockrank::AcquiredAfterGraphDot();
  EXPECT_NE(dot.find("digraph acquired_after"), std::string::npos);
  EXPECT_NE(dot.find("kStreamQueue"), std::string::npos) << dot;
  EXPECT_NE(dot.find("kEpochPublish"), std::string::npos) << dot;
  // The inverted edge is highlighted for the CI artifact.
  EXPECT_NE(dot.find("color=red"), std::string::npos) << dot;
}

TEST_F(LockRankTest, ReleaseOutOfOrderTolerated) {
  Mutex a{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex b{KGOV_LOCK_RANK(kEpochPublish)};
  lockrank::ScopedTracking tracking;
  a.Lock();
  b.Lock();
  a.Unlock();  // release order != reverse acquisition order
  b.Unlock();
  EXPECT_EQ(contracts::LockOrderViolationCount(), 0u);
  EXPECT_EQ(lockrank::HeldLocksDescription(), "");
}

#if defined(__SANITIZE_THREAD__)
TEST_F(LockRankTest, DISABLED_CrossThreadOrdersMergeIntoOneGraph) {
#else
TEST_F(LockRankTest, CrossThreadOrdersMergeIntoOneGraph) {
#endif
  // Thread 1 observes a -> b, thread 2 then b -> a: neither thread sees
  // both orders, but the process-wide graph does - this is exactly the
  // deadlock a scheduler race would need, caught without producing it.
  auto a = std::make_shared<Mutex>();
  auto b = std::make_shared<Mutex>();
  lockrank::ScopedTracking tracking;
  std::thread first([a, b] {
    MutexLock hold_a(*a);
    MutexLock hold_b(*b);
  });
  first.join();
  EXPECT_EQ(contracts::LockOrderViolationCount(), 0u);
  std::thread second([a, b] {
    MutexLock hold_b(*b);
    MutexLock hold_a(*a);
  });
  second.join();
  EXPECT_EQ(contracts::LockOrderViolationCount(), 1u);
}

TEST_F(LockRankTest, TrackingDisabledIsSilent) {
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  ASSERT_FALSE(lockrank::TrackingEnabled());
  {
    MutexLock hold_inner(inner);
    MutexLock hold_outer(outer);
  }
  EXPECT_EQ(contracts::LockOrderViolationCount(), 0u);
}

TEST_F(LockRankTest, ServeAndStreamWorkloadIsCleanUnderTracking) {
  lockrank::ScopedTracking tracking;

  // Stream side: offer / drain-all through the ranked queue mutex.
  stream::VoteIngestQueueOptions qopts;
  qopts.capacity = 8;
  stream::VoteIngestQueue queue(qopts, /*log=*/nullptr,
                                /*dead_letter_full=*/nullptr);
  for (uint32_t i = 0; i < 4; ++i) {
    votes::Vote vote;
    vote.id = i;
    vote.query.links.emplace_back(0, 1.0);
    vote.answer_list = {3, 4};
    vote.best_answer = 3;
    ASSERT_TRUE(queue.Offer(std::move(vote)).ok());
  }
  ASSERT_TRUE(queue
                  .DrainAllAndRun([](std::vector<votes::Vote> drained) {
                    EXPECT_EQ(drained.size(), 4u);
                    return Status::OK();
                  })
                  .ok());

  // Serve side: ShardedResultCache's shard locks.
  serve::ShardedResultCache cache(/*capacity=*/16, /*num_shards=*/2);
  cache.AdvanceEpoch(/*epoch=*/1);
  cache.Put("key", /*value=*/{}, /*computed_epoch=*/1);
  std::vector<ppr::ScoredAnswer> answers;
  (void)cache.Get("key", /*reader_epoch=*/1, &answers);

  EXPECT_EQ(contracts::LockOrderViolationCount(), 0u)
      << "workload hit a lock-order violation; graph:\n"
      << lockrank::AcquiredAfterGraphDot();
}

using LockRankDeathTest = LockRankTest;

TEST_F(LockRankDeathTest, AbortModeDiesOnInversion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex outer{KGOV_LOCK_RANK(kStreamQueue)};
  Mutex inner{KGOV_LOCK_RANK(kEpochPublish)};
  EXPECT_DEATH(
      {
        contracts::SetCheckMode(contracts::CheckMode::kAbort);
        lockrank::EnableTracking();
        MutexLock hold_inner(inner);
        MutexLock hold_outer(outer);
      },
      "rank inversion");
}

#endif  // KGOV_LOCK_DEBUG

}  // namespace
}  // namespace kgov
