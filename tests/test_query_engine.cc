#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault_injection.h"
#include "core/online_optimizer.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "serve/result_cache.h"

namespace kgov::serve {

namespace {

using core::OnlineKgOptimizer;
using core::OnlineOptimizerOptions;
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

OnlineOptimizerOptions SmallOnlineOptions() {
  OnlineOptimizerOptions options;
  options.batch_size = 100;  // flush explicitly
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.apply_judgment_filter = false;
  options.strategy = core::FlushStrategy::kMultiVote;
  return options;
}

QueryEngineOptions SmallEngineOptions() {
  QueryEngineOptions options;
  options.eipd.max_length = 4;
  options.top_k = 2;
  options.num_threads = 2;
  return options;
}

const std::vector<graph::NodeId>& Candidates() {
  static const std::vector<graph::NodeId> c = {3, 4};
  return c;
}

/// Deterministic query stream: two-link seeds over source nodes {0, 1, 2}
/// with pseudo-random (but seeded, hence replayable) link weights. Seed i
/// weighs its second link against its first at a ratio drawn from
/// [(i + 0.1) / count, (i + 1) / count), so no two seeds of a stream
/// share a ratio and, after Normalize, none share a cache key. Repeats
/// come only from replaying a stream or from a second stream with the
/// same rng_seed.
std::vector<ppr::QuerySeed> SeededStream(size_t count, uint64_t rng_seed) {
  std::mt19937_64 rng(rng_seed);
  std::uniform_real_distribution<double> fraction(0.1, 1.0);
  std::vector<ppr::QuerySeed> seeds;
  seeds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ppr::QuerySeed seed;
    const graph::NodeId first = static_cast<graph::NodeId>(rng() % 3);
    const double ratio =
        (static_cast<double>(i) + fraction(rng)) / static_cast<double>(count);
    seed.links.emplace_back(first, 1.0);
    seed.links.emplace_back((first + 1) % 3, ratio);
    seed.Normalize();
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise comparison of two rankings (node ids and raw score bits).
void ExpectIdenticalAnswers(const std::vector<ppr::ScoredAnswer>& a,
                            const std::vector<ppr::ScoredAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "rank " << i;
    EXPECT_TRUE(BitwiseEqual(a[i].score, b[i].score))
        << "rank " << i << ": " << a[i].score << " vs " << b[i].score;
  }
}

TEST(QueryEngineTest, CreateFailsFastNamingTheField) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());

  QueryEngineOptions bad = SmallEngineOptions();
  bad.top_k = 0;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), bad);
  ASSERT_FALSE(engine_or.ok());
  EXPECT_EQ(engine_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine_or.status().message().find("top_k"), std::string::npos)
      << engine_or.status().message();

  auto null_source = QueryEngine::Create(nullptr, &Candidates(),
                                         SmallEngineOptions());
  EXPECT_FALSE(null_source.ok());

  auto null_candidates =
      QueryEngine::Create(&online, nullptr, SmallEngineOptions());
  EXPECT_FALSE(null_candidates.ok());

  QueryEngineOptions bad_admission = SmallEngineOptions();
  bad_admission.admission.capacity = 0;
  auto admission_or =
      QueryEngine::Create(&online, &Candidates(), bad_admission);
  ASSERT_FALSE(admission_or.ok());
  EXPECT_NE(admission_or.status().message().find("capacity"),
            std::string::npos)
      << admission_or.status().message();
}

// The candidates are every epoch's answer index, so Create checks them
// against the graph once, and names the first one outside it.
TEST(QueryEngineTest, CreateRejectsACandidateOutsideTheGraph) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  const std::vector<graph::NodeId> candidates = {3, 5};
  auto engine_or =
      QueryEngine::Create(&online, &candidates, SmallEngineOptions());
  ASSERT_FALSE(engine_or.ok());
  EXPECT_EQ(engine_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine_or.status().message().find("candidates[1] = 5"),
            std::string::npos)
      << engine_or.status().message();
}

TEST(QueryEngineTest, RepeatSubmitIsServedFromCacheBitwiseIdentical) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});
  StatusOr<RankedAnswers> first = engine.Submit(seed);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->from_cache);
  EXPECT_EQ(first->epoch, 0u);
  ASSERT_EQ(first->answers.size(), 2u);

  StatusOr<RankedAnswers> second = engine.Submit(seed);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->from_cache);
  ExpectIdenticalAnswers(first->answers, second->answers);

  ShardedResultCache::Stats stats = engine.CacheStats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(QueryEngineTest, InvalidSeedReturnsErrorNotCrash) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();

  ppr::QuerySeed out_of_range;
  out_of_range.links.emplace_back(999, 1.0);
  StatusOr<RankedAnswers> served = (*engine_or)->Submit(out_of_range);
  EXPECT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, CacheOnAndOffIdenticalAcrossEpochSwaps) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());

  QueryEngineOptions cached = SmallEngineOptions();
  QueryEngineOptions uncached = SmallEngineOptions();
  uncached.enable_cache = false;

  auto cached_or = QueryEngine::Create(&online, &Candidates(), cached);
  auto uncached_or = QueryEngine::Create(&online, &Candidates(), uncached);
  ASSERT_TRUE(cached_or.ok()) << cached_or.status();
  ASSERT_TRUE(uncached_or.ok()) << uncached_or.status();
  QueryEngine& with_cache = **cached_or;
  QueryEngine& without_cache = **uncached_or;

  const std::vector<ppr::QuerySeed> stream = SeededStream(24, 0xC0FFEE);

  // Serve the stream twice on the cached engine (second pass hits), once
  // on the uncached engine; every ranking must be bitwise identical.
  auto serve_and_compare = [&](uint64_t expect_epoch) {
    std::vector<StatusOr<RankedAnswers>> fresh =
        without_cache.SubmitBatch(stream);
    std::vector<StatusOr<RankedAnswers>> pass1 =
        with_cache.SubmitBatch(stream);
    std::vector<StatusOr<RankedAnswers>> pass2 =
        with_cache.SubmitBatch(stream);
    ASSERT_EQ(fresh.size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(fresh[i].ok()) << fresh[i].status();
      ASSERT_TRUE(pass1[i].ok()) << pass1[i].status();
      ASSERT_TRUE(pass2[i].ok()) << pass2[i].status();
      EXPECT_EQ(fresh[i]->epoch, expect_epoch);
      EXPECT_EQ(pass1[i]->epoch, expect_epoch);
      EXPECT_EQ(pass2[i]->epoch, expect_epoch);
      EXPECT_FALSE(fresh[i]->from_cache);
      // The replay is served from the cache.
      EXPECT_TRUE(pass2[i]->from_cache);
      ExpectIdenticalAnswers(fresh[i]->answers, pass1[i]->answers);
      ExpectIdenticalAnswers(fresh[i]->answers, pass2[i]->answers);
    }
  };

  serve_and_compare(/*expect_epoch=*/0);

  // Epoch swap: fold a vote in, then re-serve the same stream. Both
  // engines must re-pin epoch 1 and agree again (the cached engine must
  // not leak epoch-0 rankings).
  ASSERT_TRUE(online.AddVote(MakeVote(4, 0)).ok());
  ASSERT_TRUE(online.Flush().ok());
  serve_and_compare(/*expect_epoch=*/1);

  ASSERT_TRUE(online.AddVote(MakeVote(3, 1)).ok());
  ASSERT_TRUE(online.Flush().ok());
  serve_and_compare(/*expect_epoch=*/2);

  EXPECT_EQ(with_cache.PinnedEpochNumber(), 2u);
  EXPECT_EQ(without_cache.PinnedEpochNumber(), 2u);
}

TEST(QueryEngineTest, FaultedFlushLeavesServingOnOldEpoch) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});
  StatusOr<RankedAnswers> before = engine.Submit(seed);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->epoch, 0u);

  // A corrupted optimization result must roll back: the engine keeps
  // serving the pinned epoch-0 rankings, bit for bit.
  ASSERT_TRUE(online.AddVote(MakeVote(4, 0)).ok());
  {
    ScopedFault fault(FaultSite::kGraphCorruption,
                      {.probability = 1.0, .max_fires = 1});
    Result<core::FlushReport> r = online.Flush();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(online.RollbackCount(), 1u);
  EXPECT_EQ(online.CurrentEpochNumber(), 0u);

  StatusOr<RankedAnswers> during = engine.Submit(seed);
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_EQ(during->epoch, 0u);
  EXPECT_EQ(engine.PinnedEpochNumber(), 0u);
  ExpectIdenticalAnswers(before->answers, during->answers);

  // With the fault gone the retry publishes epoch 1 and the engine
  // re-pins on the next query.
  ASSERT_TRUE(online.Flush().ok());
  StatusOr<RankedAnswers> after = engine.Submit(seed);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(engine.PinnedEpochNumber(), 1u);
}

TEST(QueryEngineTest, ConcurrentFlushAndServeStress) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  constexpr int kFlushes = 20;
  std::atomic<bool> stop{false};
  std::atomic<int> serve_errors{0};
  std::atomic<int> epoch_regressions{0};

  // Client threads hammer Submit while the optimizer flushes. Served
  // epochs must never go backwards from any single client's view.
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t]() {
      const std::vector<ppr::QuerySeed> stream =
          SeededStream(8, 0xBEEF + static_cast<uint64_t>(t));
      uint64_t last_epoch = 0;
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<RankedAnswers> served =
            engine.Submit(stream[i++ % stream.size()]);
        if (!served.ok()) {
          serve_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (served->epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = served->epoch;
      }
    });
  }

  for (uint32_t i = 0; i < kFlushes; ++i) {
    ASSERT_TRUE(online.AddVote(MakeVote(i % 2 == 0 ? 4 : 3, i)).ok());
    ASSERT_TRUE(online.Flush().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(serve_errors.load(), 0);
  EXPECT_EQ(epoch_regressions.load(), 0);
  EXPECT_EQ(online.CurrentEpochNumber(), static_cast<uint64_t>(kFlushes));

  // The next query re-pins the final epoch and serves from it.
  StatusOr<RankedAnswers> final_result =
      engine.Submit(ppr::QuerySeed::UniformOver({0}));
  ASSERT_TRUE(final_result.ok()) << final_result.status();
  EXPECT_EQ(final_result->epoch, static_cast<uint64_t>(kFlushes));
  EXPECT_EQ(engine.PinnedEpochNumber(), static_cast<uint64_t>(kFlushes));
}

// Eight threads race one cold seed with the cache on. Each miss runs its
// own propagation and Puts the same bits, so every caller is served the
// cold reference bitwise, the outcome books balance, and the next Submit
// hits.
TEST(QueryEngineTest, SameKeyColdMissRaceServesIdenticalBitsThenHits) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // Cold single-threaded reference, cache off.
  QueryEngineOptions cold_options = SmallEngineOptions();
  cold_options.enable_cache = false;
  cold_options.num_threads = 1;
  auto cold_or = QueryEngine::Create(&online, &Candidates(), cold_options);
  ASSERT_TRUE(cold_or.ok()) << cold_or.status();
  StatusOr<RankedAnswers> reference =
      (*cold_or)->Submit(ppr::QuerySeed::UniformOver({0}));
  ASSERT_TRUE(reference.ok()) << reference.status();

  // K threads submit the identical cold query at once.
  constexpr int kThreads = 8;
  std::vector<std::optional<StatusOr<RankedAnswers>>> results(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
      results[t].emplace(engine.Submit(ppr::QuerySeed::UniformOver({0})));
    });
  }
  go.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].has_value());
    ASSERT_TRUE(results[t]->ok()) << results[t]->status();
    ExpectIdenticalAnswers(reference->answers, (**results[t]).answers);
  }

  // Each query was a hit or ran its own propagation; none was coalesced.
  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.hits + stats.misses + stats.shed + stats.errors,
            stats.queries);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.followers, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);

  // Whichever Put landed last, the key is cached with the reference bits.
  StatusOr<RankedAnswers> next =
      engine.Submit(ppr::QuerySeed::UniformOver({0}));
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE(next->from_cache);
  ExpectIdenticalAnswers(reference->answers, next->answers);
  EXPECT_EQ(engine.GetServeStats().hits, stats.hits + 1);
}

TEST(QueryEngineTest, SubmitBatchServesBitwiseIdenticalToRank) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());

  std::mt19937_64 rng(0xBA7C4);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::vector<ppr::QuerySeed> stream;
  for (int i = 0; i < 32; ++i) {
    ppr::QuerySeed seed;
    seed.links.emplace_back(0, weight(rng));
    if (i % 2 == 0) seed.links.emplace_back(1 + (i % 2), weight(rng));
    seed.Normalize();
    stream.push_back(std::move(seed));
  }

  QueryEngineOptions options = SmallEngineOptions();
  options.enable_cache = false;  // every query propagates
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // The oracle: a direct Rank of each seed on the pinned epoch.
  const core::ServingEpoch epoch = online.CurrentEpoch();
  const ppr::EipdEngine oracle(epoch.view(), options.eipd);
  auto expect_oracle = [&](const ppr::QuerySeed& seed,
                           const StatusOr<RankedAnswers>& served) {
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served->epoch, epoch.epoch);
    StatusOr<std::vector<ppr::ScoredAnswer>> solo =
        oracle.Rank(seed, Candidates(), options.top_k);
    ASSERT_TRUE(solo.ok()) << solo.status();
    ExpectIdenticalAnswers(*solo, served->answers);
  };

  std::vector<StatusOr<RankedAnswers>> served = engine.SubmitBatch(stream);
  ASSERT_EQ(served.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    expect_oracle(stream[i], served[i]);
  }
  EXPECT_EQ(engine.GetServeStats().misses, stream.size());

  // One batch mixing valid seeds with a seed naming a node outside the
  // view and a seed with a NaN weight: the bad seeds fail alone, every
  // valid seed still matches the oracle bit for bit.
  ppr::QuerySeed out_of_range;
  out_of_range.links = {{0, 0.5}, {99, 0.5}};
  ppr::QuerySeed nan_weight;
  nan_weight.links = {{0, std::numeric_limits<double>::quiet_NaN()}};
  std::vector<ppr::QuerySeed> mixed(stream.begin(), stream.begin() + 6);
  mixed.insert(mixed.begin() + 2, out_of_range);
  mixed.insert(mixed.begin() + 5, nan_weight);
  std::vector<StatusOr<RankedAnswers>> mixed_served =
      engine.SubmitBatch(mixed);
  ASSERT_EQ(mixed_served.size(), mixed.size());
  for (size_t i = 0; i < mixed.size(); ++i) {
    if (i == 2 || i == 5) {
      ASSERT_FALSE(mixed_served[i].ok()) << "seed " << i;
      EXPECT_EQ(mixed_served[i].status().code(),
                StatusCode::kInvalidArgument);
    } else {
      expect_oracle(mixed[i], mixed_served[i]);
    }
  }
  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.queries, stream.size() + mixed.size());
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.hits + stats.misses + stats.shed + stats.errors,
            stats.queries);
}

TEST(QueryEngineTest, OutcomeAccountingIdentityHoldsUnderConcurrentLoad) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  constexpr int kClients = 4;
  constexpr int kReps = 3;
  constexpr size_t kBatch = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      // Overlapping streams: each thread replays its stream, and threads
      // share streams pairwise, so both hits and misses occur.
      const std::vector<ppr::QuerySeed> stream =
          SeededStream(kBatch, 0xFEED + static_cast<uint64_t>(t % 2));
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<StatusOr<RankedAnswers>> results =
            engine.SubmitBatch(stream);
        for (const StatusOr<RankedAnswers>& r : results) {
          if (!r.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every query resolves to exactly one outcome: the books must balance
  // to the query count with nothing double- or un-counted.
  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.queries,
            static_cast<uint64_t>(kClients) * kReps * kBatch);
  EXPECT_EQ(stats.hits + stats.misses + stats.shed + stats.errors,
            stats.queries);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

// Submit and SubmitBatch from four callers, mixing hits, misses, shed
// queries (each batch is larger than the window) and
// invalid seeds. Each caller tallies the outcome it was handed; once the
// callers stop, the engine's counters equal the tallies exactly.
TEST(QueryEngineTest, OutcomeCountersMatchCallersExactlyWithShedding) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.admission.capacity = 4;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  struct Tally {
    uint64_t queries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;

    void Add(const StatusOr<RankedAnswers>& r) {
      ++queries;
      if (!r.ok()) {
        ++(r.status().code() == StatusCode::kResourceExhausted ? shed
                                                               : errors);
      } else if (r->from_cache) {
        ++hits;
      } else {
        ++misses;
      }
    }
  };
  constexpr size_t kCallers = 4;
  constexpr int kReps = 20;
  // > capacity, and cold: every batch misses the cache, so it sheds.
  constexpr size_t kBatch = 12;
  ppr::QuerySeed invalid;
  invalid.links.emplace_back(999, 1.0);
  std::vector<Tally> tallies(kCallers);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t]() {
      // Callers share streams pairwise, so their misses also race on one
      // key.
      const std::vector<ppr::QuerySeed> stream =
          SeededStream(24, 0x5ED + static_cast<uint64_t>(t % 2));
      Tally& tally = tallies[t];
      for (int rep = 0; rep < kReps; ++rep) {
        for (const ppr::QuerySeed& seed : stream) {
          tally.Add(engine.Submit(seed));
        }
        tally.Add(engine.Submit(invalid));
        // Two links with fresh weights per caller and rep (Normalize
        // keeps their ratio): no batch seed is cached.
        std::mt19937_64 rng(0xBA7C + 100 * t + static_cast<size_t>(rep));
        std::uniform_real_distribution<double> weight(0.1, 1.0);
        std::vector<ppr::QuerySeed> batch(kBatch);
        for (size_t i = 0; i < kBatch; ++i) {
          batch[i].links = {{static_cast<graph::NodeId>(i % 3), weight(rng)},
                            {static_cast<graph::NodeId>((i + 1) % 3),
                             weight(rng)}};
          batch[i].Normalize();
        }
        for (const StatusOr<RankedAnswers>& r : engine.SubmitBatch(batch)) {
          tally.Add(r);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();

  Tally total;
  for (const Tally& t : tallies) {
    total.queries += t.queries;
    total.hits += t.hits;
    total.misses += t.misses;
    total.shed += t.shed;
    total.errors += t.errors;
  }
  const QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.queries, total.queries);
  EXPECT_EQ(stats.hits, total.hits);
  EXPECT_EQ(stats.misses, total.misses);
  EXPECT_EQ(stats.followers, 0u);
  EXPECT_EQ(stats.shed, total.shed);
  EXPECT_EQ(stats.errors, total.errors);
  EXPECT_EQ(stats.hits + stats.misses + stats.shed + stats.errors,
            stats.queries);
  EXPECT_GE(stats.shed, kCallers * kReps * (kBatch - options.admission.capacity));
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  // A hit served by the probe takes no slot, and every other query is
  // either admitted or shed.
  EXPECT_EQ(engine.AdmissionStats().admitted + stats.shed + stats.hits,
            stats.queries);
  EXPECT_EQ(engine.AdmissionStats().in_flight, 0u);
}

// Each serving thread keeps its own pin of the engine's epoch. After a
// flush, every one of them must re-pin on its next Submit: it serves the
// new epoch, bit for bit what a cold propagation on that epoch ranks.
TEST(QueryEngineTest, EveryThreadsNextSubmitAfterAFlushServesTheNewEpoch) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  constexpr int kThreads = 4;
  constexpr int kFlushes = 3;
  const ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});
  // served[t][phase]: what thread t's first Submit after `phase` flushes
  // returned.
  std::vector<std::vector<std::optional<StatusOr<RankedAnswers>>>> served(
      kThreads, std::vector<std::optional<StatusOr<RankedAnswers>>>(
                    kFlushes + 1));
  std::atomic<int> phase{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int p = 0; p <= kFlushes; ++p) {
        while (phase.load(std::memory_order_acquire) < p) {
          std::this_thread::yield();
        }
        served[t][p].emplace(engine.Submit(seed));
        // A second query on the same pin: a hit on the same epoch.
        StatusOr<RankedAnswers> again = engine.Submit(seed);
        EXPECT_TRUE(again.ok() && again->epoch == static_cast<uint64_t>(p));
        done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::vector<core::ServingEpoch> epochs;
  for (int p = 0; p <= kFlushes; ++p) {
    epochs.push_back(online.CurrentEpoch());
    phase.store(p, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < (p + 1) * kThreads) {
      std::this_thread::yield();
    }
    if (p == kFlushes) break;
    ASSERT_TRUE(online.AddVote(MakeVote(p % 2 == 0 ? 4 : 3,
                                        static_cast<uint32_t>(p)))
                    .ok());
    ASSERT_TRUE(online.Flush().ok());
  }
  for (std::thread& t : threads) t.join();

  for (int p = 0; p <= kFlushes; ++p) {
    ASSERT_EQ(epochs[p].epoch, static_cast<uint64_t>(p));
    ppr::EipdEngine cold(epochs[p].view(), SmallEngineOptions().eipd);
    StatusOr<std::vector<ppr::ScoredAnswer>> reference =
        cold.Rank(seed, Candidates(), SmallEngineOptions().top_k);
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (int t = 0; t < kThreads; ++t) {
      const StatusOr<RankedAnswers>& r = *served[t][p];
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->epoch, static_cast<uint64_t>(p))
          << "thread " << t << " after " << p << " flushes";
      ExpectIdenticalAnswers(*reference, r->answers);
    }
  }
}

// Each epoch's engine carries its own answer index. On a graph whose
// answers have out-edges and whose non-answers sit on level L, across
// weight-changing flushes, every cache-off Submit matches a Rank without
// an answer set on that epoch's view, bit for bit.
TEST(QueryEngineTest, AnswerIndexFollowsEveryEpoch) {
  WeightedDigraph g(8);
  for (const auto& [u, v, w] : std::vector<std::tuple<int, int, double>>{
           {0, 1, 0.6}, {0, 2, 0.4}, {1, 3, 0.5}, {1, 5, 0.5},
           {2, 4, 0.7}, {2, 6, 0.3}, {3, 5, 0.4}, {3, 7, 0.6},
           {4, 6, 1.0}, {5, 3, 0.5}, {5, 7, 0.5}, {6, 4, 0.8},
           {6, 5, 0.2}, {7, 4, 1.0}}) {
    ASSERT_TRUE(g.AddEdge(u, v, w).ok());
  }
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.enable_cache = false;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;
  const std::vector<ppr::QuerySeed> stream = SeededStream(6, 0xE90C);

  constexpr int kFlushes = 4;
  std::vector<ppr::ScoredAnswer> previous;
  for (int p = 0; p <= kFlushes; ++p) {
    const core::ServingEpoch epoch = online.CurrentEpoch();
    ASSERT_EQ(epoch.epoch, static_cast<uint64_t>(p));
    const ppr::EipdEngine full(epoch.view(), options.eipd);
    for (const ppr::QuerySeed& seed : stream) {
      StatusOr<RankedAnswers> served = engine.Submit(seed);
      ASSERT_TRUE(served.ok()) << served.status();
      EXPECT_EQ(served->epoch, epoch.epoch);
      StatusOr<std::vector<ppr::ScoredAnswer>> want =
          full.Rank(seed, Candidates(), options.top_k);
      ASSERT_TRUE(want.ok()) << want.status();
      ExpectIdenticalAnswers(*want, served->answers);
    }
    // Each flush moved the first seed's scores, so an engine left on an
    // earlier epoch would fail above.
    StatusOr<std::vector<ppr::ScoredAnswer>> first =
        full.Rank(stream.front(), Candidates(), options.top_k);
    ASSERT_TRUE(first.ok());
    if (p > 0) {
      ASSERT_EQ(first->size(), previous.size());
      bool moved = false;
      for (size_t i = 0; i < previous.size(); ++i) {
        moved |= previous[i].node != (*first)[i].node ||
                 !BitwiseEqual(previous[i].score, (*first)[i].score);
      }
      EXPECT_TRUE(moved) << "flush " << p << " changed no score";
    }
    previous = *first;
    if (p == kFlushes) break;
    ASSERT_TRUE(online.AddVote(MakeVote(p % 2 == 0 ? 4 : 3,
                                        static_cast<uint32_t>(p)))
                    .ok());
    ASSERT_TRUE(online.Flush().ok());
  }
}

// A thread's pin is keyed by a process-unique engine id. Engines created
// and destroyed one after the other on one thread, often at the same
// address and all on epoch 0, must each serve their own graph.
TEST(QueryEngineTest, SequentialEnginesNeverShareAThreadPin) {
  WeightedDigraph g = MakeFixture();
  WeightedDigraph h(5);
  ASSERT_TRUE(h.AddEdge(0, 1, 0.1).ok());
  ASSERT_TRUE(h.AddEdge(0, 2, 0.9).ok());
  ASSERT_TRUE(h.AddEdge(1, 3, 1.0).ok());
  ASSERT_TRUE(h.AddEdge(2, 4, 1.0).ok());
  OnlineKgOptimizer first(g, SmallOnlineOptions());
  OnlineKgOptimizer second(h, SmallOnlineOptions());
  const ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});
  auto cold = [&](const OnlineKgOptimizer& source) {
    ppr::EipdEngine engine(source.CurrentEpoch().view(),
                           SmallEngineOptions().eipd);
    return engine.Rank(seed, Candidates(), SmallEngineOptions().top_k);
  };
  StatusOr<std::vector<ppr::ScoredAnswer>> first_ref = cold(first);
  StatusOr<std::vector<ppr::ScoredAnswer>> second_ref = cold(second);
  ASSERT_TRUE(first_ref.ok() && second_ref.ok());
  // The two graphs rank the candidates in opposite orders.
  ASSERT_NE(first_ref->front().node, second_ref->front().node);

  const void* last_address = nullptr;
  int reused_addresses = 0;
  for (int round = 0; round < 4; ++round) {
    for (const OnlineKgOptimizer* source : {&first, &second}) {
      auto engine_or =
          QueryEngine::Create(source, &Candidates(), SmallEngineOptions());
      ASSERT_TRUE(engine_or.ok()) << engine_or.status();
      QueryEngine& engine = **engine_or;
      if (&engine == last_address) ++reused_addresses;
      last_address = &engine;
      const std::vector<ppr::ScoredAnswer>& want =
          source == &first ? *first_ref : *second_ref;
      for (int query = 0; query < 2; ++query) {  // a miss, then a hit
        StatusOr<RankedAnswers> r = engine.Submit(seed);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(r->epoch, 0u);
        ExpectIdenticalAnswers(want, r->answers);
      }
    }
  }
  RecordProperty("reused_addresses", reused_addresses);
}

TEST(QueryEngineTest, EpochSwapRacedAgainstConcurrentMissesNeverMixesPins) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // Property: under racing epoch swaps, every served ranking is bitwise
  // identical to a cold propagation on the epoch it CLAIMS - the
  // acquire-probe re-pin can never hand out a stale-epoch ranking for a
  // fresh pin, and a miss always propagates under the pin it reports.
  struct Observation {
    size_t seed_index;
    uint64_t epoch;
    std::vector<ppr::ScoredAnswer> answers;
  };
  const std::vector<ppr::QuerySeed> shared_stream = SeededStream(6, 0xE9);
  constexpr int kRounds = 5;
  constexpr int kClients = 3;
  constexpr int kReps = 5;

  for (int round = 0; round < kRounds; ++round) {
    const core::ServingEpoch before = online.CurrentEpoch();
    std::vector<std::vector<Observation>> observed(kClients);
    std::atomic<int> failures{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t]() {
        while (!go.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        for (int rep = 0; rep < kReps; ++rep) {
          for (size_t s = 0; s < shared_stream.size(); ++s) {
            StatusOr<RankedAnswers> served =
                engine.Submit(shared_stream[s]);
            if (!served.ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            observed[t].push_back(
                Observation{s, served->epoch, std::move(served->answers)});
          }
        }
      });
    }
    go.store(true, std::memory_order_relaxed);
    // Swap the epoch mid-traffic.
    ASSERT_TRUE(
        online.AddVote(MakeVote(round % 2 == 0 ? 4 : 3,
                                static_cast<uint32_t>(round)))
            .ok());
    ASSERT_TRUE(online.Flush().ok());
    for (std::thread& t : clients) t.join();
    ASSERT_EQ(failures.load(), 0);
    const core::ServingEpoch after = online.CurrentEpoch();
    ASSERT_EQ(after.epoch, before.epoch + 1);

    // Cold references on both epochs a query could have pinned.
    ppr::EipdEngine cold_before(before.view(),
                                SmallEngineOptions().eipd);
    ppr::EipdEngine cold_after(after.view(), SmallEngineOptions().eipd);
    for (const std::vector<Observation>& thread_obs : observed) {
      for (const Observation& obs : thread_obs) {
        ASSERT_TRUE(obs.epoch == before.epoch || obs.epoch == after.epoch)
            << "served epoch " << obs.epoch << " outside [" << before.epoch
            << ", " << after.epoch << "]";
        ppr::EipdEngine& cold =
            obs.epoch == before.epoch ? cold_before : cold_after;
        StatusOr<std::vector<ppr::ScoredAnswer>> reference = cold.Rank(
            shared_stream[obs.seed_index], Candidates(),
            SmallEngineOptions().top_k);
        ASSERT_TRUE(reference.ok()) << reference.status();
        ExpectIdenticalAnswers(*reference, obs.answers);
      }
    }
  }
}

TEST(QueryEngineTest, FullAdmissionWindowShedsWithResourceExhausted) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.admission.capacity = 2;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // SubmitBatch admits every query BEFORE enqueuing any work, so with
  // capacity 2 a 32-query batch deterministically admits exactly 2 and
  // sheds exactly 30 - each shed immediately, with kResourceExhausted,
  // never parked on the full window.
  const std::vector<ppr::QuerySeed> stream = SeededStream(32, 0x5EED);
  std::vector<StatusOr<RankedAnswers>> results = engine.SubmitBatch(stream);
  ASSERT_EQ(results.size(), stream.size());
  size_t served = 0;
  size_t shed = 0;
  for (const StatusOr<RankedAnswers>& r : results) {
    if (r.ok()) {
      ++served;
      EXPECT_FALSE(r->answers.empty());
    } else {
      ++shed;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(shed, 30u);

  QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.shed, 30u);
  EXPECT_EQ(stats.hits + stats.misses + stats.shed + stats.errors,
            stats.queries);
  EXPECT_EQ(engine.AdmissionStats().admitted, 2u);

  // The window drained: the next query is admitted and served normally.
  StatusOr<RankedAnswers> after =
      engine.Submit(ppr::QuerySeed::UniformOver({0}));
  ASSERT_TRUE(after.ok()) << after.status();
}

// A hit is served by the probe before admission, so it takes no slot and
// is never shed, however full the window is.
TEST(QueryEngineTest, HitsAreNeverShed) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.admission.capacity = 2;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  const ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});
  StatusOr<RankedAnswers> warm = engine.Submit(seed);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_FALSE(warm->from_cache);

  const std::vector<ppr::QuerySeed> batch(32, seed);
  size_t hits = 0;
  size_t shed = 0;
  for (const StatusOr<RankedAnswers>& r : engine.SubmitBatch(batch)) {
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      ++shed;
      continue;
    }
    EXPECT_TRUE(r->from_cache);
    ExpectIdenticalAnswers(warm->answers, r->answers);
    hits += r->from_cache ? 1 : 0;
  }
  EXPECT_EQ(hits, 32u);
  EXPECT_EQ(shed, 0u);

  const QueryEngine::ServeStats stats = engine.GetServeStats();
  EXPECT_EQ(stats.hits, 32u);
  EXPECT_EQ(stats.shed, 0u);
  // Only the warming miss was admitted.
  EXPECT_EQ(engine.AdmissionStats().admitted, 1u);
  EXPECT_EQ(engine.AdmissionStats().in_flight, 0u);
}

// A hit takes no pin, but it releases a superseded one, so a thread that
// only hits after a flush keeps no old snapshot alive.
TEST(QueryEngineTest, AHitReleasesASupersededPin) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  auto engine_or =
      QueryEngine::Create(&online, &Candidates(), SmallEngineOptions());
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;
  const ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});

  // A miss pins epoch 0 on this thread.
  const std::weak_ptr<const graph::CsrSnapshot> old =
      online.CurrentEpoch().snapshot;
  ASSERT_TRUE(engine.Submit(seed).ok());
  ASSERT_TRUE(online.AddVote(MakeVote(4, 1)).ok());
  ASSERT_TRUE(online.Flush().ok());
  // Another thread moves the engine to epoch 1 and caches the seed there.
  std::thread other([&]() { EXPECT_TRUE(engine.Submit(seed).ok()); });
  other.join();
  const long held = old.use_count();
  ASSERT_GE(held, 1);

  StatusOr<RankedAnswers> hit = engine.Submit(seed);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->epoch, 1u);
  EXPECT_EQ(old.use_count(), held - 1);
}

// Submit propagates on the calling thread's workspace
// (ppr::ThreadLocalWorkspace), so a fresh thread's workspace shows whether
// it, rather than a pool worker, ran the propagation: it is sized to the
// graph only after a miss.
bool ThisThreadPropagated(size_t num_nodes) {
  return ppr::ThreadLocalWorkspace().phi.size() == num_nodes;
}

TEST(QueryEngineTest, SubmitServesOnTheCallingThread) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.num_threads = 1;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;
  const ppr::QuerySeed seed = ppr::QuerySeed::UniformOver({0});

  // A cold miss propagates on the caller's own workspace; its hit follows.
  std::optional<StatusOr<RankedAnswers>> miss;
  std::optional<StatusOr<RankedAnswers>> hit;
  bool fresh_before = false;
  bool propagated = false;
  std::thread caller([&]() {
    fresh_before = !ThisThreadPropagated(g.NumNodes());
    miss.emplace(engine.Submit(seed));
    propagated = ThisThreadPropagated(g.NumNodes());
    hit.emplace(engine.Submit(seed));
  });
  caller.join();
  EXPECT_TRUE(fresh_before);
  EXPECT_TRUE(propagated) << "the miss did not propagate on its caller";
  ASSERT_TRUE(miss->ok()) << miss->status();
  ASSERT_TRUE(hit->ok()) << hit->status();
  EXPECT_FALSE((*miss)->from_cache);
  EXPECT_TRUE((*hit)->from_cache);
  ExpectIdenticalAnswers((*miss)->answers, (*hit)->answers);

  // A hit on a thread that never propagated leaves its workspace unsized.
  std::optional<StatusOr<RankedAnswers>> other_hit;
  bool hit_propagated = true;
  std::thread reader([&]() {
    other_hit.emplace(engine.Submit(seed));
    hit_propagated = ThisThreadPropagated(g.NumNodes());
  });
  reader.join();
  ASSERT_TRUE(other_hit->ok()) << other_hit->status();
  EXPECT_TRUE((*other_hit)->from_cache);
  EXPECT_FALSE(hit_propagated);
}

TEST(QueryEngineTest, ConcurrentCallersEachPropagateOnOneLane) {
  WeightedDigraph g = MakeFixture();
  OnlineKgOptimizer online(g, SmallOnlineOptions());
  QueryEngineOptions options = SmallEngineOptions();
  options.num_threads = 1;
  auto engine_or = QueryEngine::Create(&online, &Candidates(), options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  QueryEngine& engine = **engine_or;

  // N callers sending distinct seeds past one pool worker: each caller
  // propagates its own misses on its own single lane, so N callers hold
  // at most N workspaces however many queries they send.
  constexpr size_t kCallers = 4;
  constexpr size_t kPerCaller = 50;
  const std::vector<ppr::QuerySeed> stream =
      SeededStream(kCallers * kPerCaller, 0x1A7E5);
  std::set<std::string> keys;
  std::string key;
  for (const ppr::QuerySeed& seed : stream) {
    EncodeCacheKey(seed, &key);
    keys.insert(key);
  }
  ASSERT_EQ(keys.size(), stream.size()) << "the stream repeats a cache key";
  std::atomic<bool> go{false};
  std::atomic<size_t> misses{0};
  std::vector<char> own_lane(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t]() {
      while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
      size_t mine = 0;
      for (size_t i = t; i < stream.size(); i += kCallers) {
        StatusOr<RankedAnswers> served = engine.Submit(stream[i]);
        EXPECT_TRUE(served.ok()) << served.status();
        if (served.ok() && !served->from_cache) ++mine;
      }
      misses.fetch_add(mine, std::memory_order_relaxed);
      own_lane[t] = mine == 0 || ThisThreadPropagated(g.NumNodes());
    });
  }
  go.store(true, std::memory_order_relaxed);
  for (std::thread& t : callers) t.join();
  EXPECT_GE(misses.load(), 1u);
  for (size_t t = 0; t < kCallers; ++t) {
    EXPECT_TRUE(own_lane[t]) << "caller " << t;
  }
}

}  // namespace
}  // namespace kgov::serve
