// SingleFlightGroup: leader election, follower publication, deadline
// backstop, RAII resolution, and flight-key epoch separation.

#include "serve/single_flight.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ppr/ranking.h"

namespace kgov::serve {
namespace {

using std::chrono::milliseconds;

std::vector<ppr::ScoredAnswer> MakeAnswers(double score) {
  std::vector<ppr::ScoredAnswer> answers(2);
  answers[0].node = 3;
  answers[0].score = score;
  answers[1].node = 4;
  answers[1].score = score / 2.0;
  return answers;
}

TEST(SingleFlightTest, FirstCallerLeadsLaterCallersFollow) {
  SingleFlightGroup group;
  SingleFlightGroup::JoinOutcome leader = group.JoinOrLead("k");
  ASSERT_NE(leader.token, nullptr);
  EXPECT_EQ(leader.flight, nullptr);
  EXPECT_EQ(group.InFlight(), 1u);

  SingleFlightGroup::JoinOutcome follower = group.JoinOrLead("k");
  EXPECT_EQ(follower.token, nullptr);
  ASSERT_NE(follower.flight, nullptr);

  const std::vector<ppr::ScoredAnswer> answers = MakeAnswers(0.25);
  leader.token->Complete(Status::OK(), answers);
  EXPECT_EQ(group.InFlight(), 0u);

  SingleFlightGroup::WaitResult got =
      SingleFlightGroup::Wait(follower.flight, milliseconds(5000));
  ASSERT_TRUE(got.published);
  ASSERT_TRUE(got.status.ok());
  ASSERT_EQ(got.answers.size(), answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(got.answers[i].node, answers[i].node);
    EXPECT_EQ(got.answers[i].score, answers[i].score);
  }
}

TEST(SingleFlightTest, FollowerBlockedInThreadIsWokenByLeader) {
  SingleFlightGroup group;
  SingleFlightGroup::JoinOutcome leader = group.JoinOrLead("k");
  ASSERT_NE(leader.token, nullptr);
  SingleFlightGroup::JoinOutcome follower = group.JoinOrLead("k");
  ASSERT_NE(follower.flight, nullptr);

  std::atomic<bool> published{false};
  std::thread waiter([&]() {
    SingleFlightGroup::WaitResult got =
        SingleFlightGroup::Wait(follower.flight, milliseconds(30000));
    published.store(got.published && got.status.ok());
  });
  leader.token->Complete(Status::OK(), MakeAnswers(1.0));
  waiter.join();
  EXPECT_TRUE(published.load());
}

TEST(SingleFlightTest, AbandonedLeaderResolvesWithInternalError) {
  SingleFlightGroup group;
  SingleFlightGroup::JoinOutcome follower;
  {
    SingleFlightGroup::JoinOutcome leader = group.JoinOrLead("k");
    ASSERT_NE(leader.token, nullptr);
    follower = group.JoinOrLead("k");
    // Token destroyed here without Complete: the RAII backstop must
    // publish an Internal error, never leave followers hanging.
  }
  EXPECT_EQ(group.InFlight(), 0u);
  SingleFlightGroup::WaitResult got =
      SingleFlightGroup::Wait(follower.flight, milliseconds(5000));
  ASSERT_TRUE(got.published);
  EXPECT_EQ(got.status.code(), StatusCode::kInternal);
}

TEST(SingleFlightTest, DeadlineExpiresUnpublishedThenFlightStaysLive) {
  SingleFlightGroup group;
  SingleFlightGroup::JoinOutcome leader = group.JoinOrLead("k");
  ASSERT_NE(leader.token, nullptr);
  SingleFlightGroup::JoinOutcome follower = group.JoinOrLead("k");

  SingleFlightGroup::WaitResult timed_out =
      SingleFlightGroup::Wait(follower.flight, milliseconds(5));
  EXPECT_FALSE(timed_out.published);

  // The flight survives the timed-out follower: a later Complete still
  // reaches waiters who stayed.
  leader.token->Complete(Status::OK(), MakeAnswers(2.0));
  SingleFlightGroup::WaitResult late =
      SingleFlightGroup::Wait(follower.flight, milliseconds(5000));
  EXPECT_TRUE(late.published);
}

TEST(SingleFlightTest, ResolvedKeyStartsAFreshFlight) {
  SingleFlightGroup group;
  SingleFlightGroup::JoinOutcome first = group.JoinOrLead("k");
  ASSERT_NE(first.token, nullptr);
  first.token->Complete(Status::OK(), MakeAnswers(1.0));

  // The key was erased on resolve, so the next miss leads again instead
  // of observing a stale done flight.
  SingleFlightGroup::JoinOutcome second = group.JoinOrLead("k");
  EXPECT_NE(second.token, nullptr);
  second.token->Complete(Status::OK(), MakeAnswers(2.0));
}

TEST(SingleFlightTest, FlightKeySeparatesEpochsAndDegradedMode) {
  const std::string key = EncodeFlightKey("seed-bytes", 7);
  EXPECT_NE(key, EncodeFlightKey("seed-bytes", 8));
  EXPECT_NE(key, EncodeFlightKey("seed-byteX", 7));
  EXPECT_EQ(key, EncodeFlightKey("seed-bytes", 7));

  // Different epochs really are different flights.
  SingleFlightGroup group;
  SingleFlightGroup::JoinOutcome e7 =
      group.JoinOrLead(EncodeFlightKey("s", 7));
  SingleFlightGroup::JoinOutcome e8 =
      group.JoinOrLead(EncodeFlightKey("s", 8));
  EXPECT_NE(e7.token, nullptr);
  EXPECT_NE(e8.token, nullptr);
  e7.token->Complete(Status::OK(), {});
  e8.token->Complete(Status::OK(), {});
}

TEST(SingleFlightTest, HammerOneLeaderPerGenerationAllOthersCoalesce) {
  SingleFlightGroup group;
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<uint64_t> leaders{0};
  std::atomic<uint64_t> followers{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int r = 0; r < kRounds; ++r) {
        SingleFlightGroup::JoinOutcome join = group.JoinOrLead("hot");
        if (join.token != nullptr) {
          leaders.fetch_add(1, std::memory_order_relaxed);
          join.token->Complete(Status::OK(), MakeAnswers(1.0));
        } else {
          SingleFlightGroup::WaitResult got = SingleFlightGroup::Wait(
              join.flight, std::chrono::seconds(30));
          if (got.published && got.status.ok() && got.answers.size() == 2) {
            followers.fetch_add(1, std::memory_order_relaxed);
          } else {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(leaders.load() + followers.load(),
            static_cast<uint64_t>(kThreads) * kRounds);
  // Every follower coalesced onto some leader's flight; with any overlap
  // at all there are strictly fewer leaders than calls.
  EXPECT_GE(leaders.load(), 1u);
  EXPECT_EQ(group.InFlight(), 0u);
}

}  // namespace
}  // namespace kgov::serve
