// ShardedResultCache: the per-shard capacity bound, CLOCK second-chance
// eviction, refresh on Put, the AdvanceEpoch sweep, stale-Put rejection,
// and hits racing Puts and sweeps.

#include "serve/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace kgov::serve {
namespace {

std::vector<ppr::ScoredAnswer> ValueFor(uint32_t id) {
  return {ppr::ScoredAnswer{id, 0.5 * id}};
}

std::string KeyFor(uint32_t id) { return "key-" + std::to_string(id); }

/// A Get at `epoch` that hits, returning the cached node id (or -1). Note
/// that a hit marks the entry referenced.
int64_t Lookup(ShardedResultCache& cache, uint32_t id, uint64_t epoch = 0) {
  std::vector<ppr::ScoredAnswer> out;
  if (!cache.Get(KeyFor(id), epoch, &out)) return -1;
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? -1 : out.front().node;
}

TEST(ResultCacheTest, EncodeCacheKeyOverwritesTheBuffer) {
  ppr::QuerySeed two;
  two.links = {{1, 0.25}, {2, 0.75}};
  ppr::QuerySeed one;
  one.links = {{1, 1.0}};
  std::string key = "stale bytes left by an earlier query";
  EncodeCacheKey(two, &key);
  EXPECT_EQ(key.size(), 2 * (sizeof(graph::NodeId) + sizeof(double)));
  const std::string first = key;
  EncodeCacheKey(one, &key);
  EXPECT_EQ(key.size(), sizeof(graph::NodeId) + sizeof(double));
  EncodeCacheKey(two, &key);
  EXPECT_EQ(key, first);
}

TEST(ResultCacheTest, CapacityBoundsEveryShard) {
  // 8 entries over 4 shards: 2 slots each. Every Put beyond a full shard
  // evicts, and Put says so.
  ShardedResultCache cache(/*capacity=*/8, /*num_shards=*/4);
  constexpr uint32_t kKeys = 200;
  uint64_t evicted = 0;
  for (uint32_t id = 0; id < kKeys; ++id) {
    if (cache.Put(KeyFor(id), ValueFor(id), 0)) ++evicted;
    EXPECT_LE(cache.size(), 8u);
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(evicted, kKeys - 8);
  EXPECT_EQ(cache.GetStats().evictions, kKeys - 8);

  // One shard holds one slot at the least.
  ShardedResultCache tiny(/*capacity=*/1, /*num_shards=*/4);
  for (uint32_t id = 0; id < kKeys; ++id) {
    tiny.Put(KeyFor(id), ValueFor(id), 0);
  }
  EXPECT_EQ(tiny.size(), 4u);
}

TEST(ResultCacheTest, ReferencedEntrySurvivesOneSweepUnreferencedIsEvicted) {
  ShardedResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  EXPECT_FALSE(cache.Put(KeyFor(1), ValueFor(1), 0));
  EXPECT_FALSE(cache.Put(KeyFor(2), ValueFor(2), 0));
  ASSERT_EQ(Lookup(cache, 1), 1);  // 1 is now referenced

  // The hand clears 1's bit and evicts 2, which no hit referenced.
  EXPECT_TRUE(cache.Put(KeyFor(3), ValueFor(3), 0));
  EXPECT_EQ(Lookup(cache, 2), -1);
  EXPECT_EQ(cache.size(), 2u);

  // 1 had its second chance: with no hit since, the next Put evicts it,
  // not 3, which the hand has not passed yet.
  EXPECT_TRUE(cache.Put(KeyFor(4), ValueFor(4), 0));
  EXPECT_EQ(Lookup(cache, 1), -1);
  EXPECT_EQ(Lookup(cache, 3), 3);
  EXPECT_EQ(Lookup(cache, 4), 4);
  EXPECT_EQ(cache.GetStats().evictions, 2u);
}

TEST(ResultCacheTest, PutRefreshesAnExistingKey) {
  ShardedResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put(KeyFor(1), ValueFor(1), 0);
  cache.Put(KeyFor(2), ValueFor(2), 0);
  // Same key, new value: replaced in place, nothing evicted.
  EXPECT_FALSE(cache.Put(KeyFor(1), ValueFor(7), 0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);

  // The refresh marked 1 referenced, so a new key evicts 2 instead.
  EXPECT_TRUE(cache.Put(KeyFor(3), ValueFor(3), 0));
  EXPECT_EQ(Lookup(cache, 2), -1);
  EXPECT_EQ(Lookup(cache, 1), 7);
}

TEST(ResultCacheTest, GetHitsOnlyEntriesComputedAtOrBeforeTheReadersEpoch) {
  ShardedResultCache cache(/*capacity=*/4, /*num_shards=*/1);
  cache.AdvanceEpoch(1);
  cache.Put(KeyFor(1), ValueFor(1), /*computed_epoch=*/1);
  EXPECT_EQ(Lookup(cache, 1, /*epoch=*/0), -1);
  EXPECT_EQ(Lookup(cache, 1, /*epoch=*/1), 1);
  const ShardedResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheTest, AdvanceEpochDropsEveryEntry) {
  ShardedResultCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put(KeyFor(1), ValueFor(1), 0);
  cache.Put(KeyFor(2), ValueFor(2), 0);
  cache.Put(KeyFor(3), ValueFor(3), 0);

  EXPECT_EQ(cache.AdvanceEpoch(1), 3u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(Lookup(cache, 1, 1), -1);

  // The shard refills from empty: no slot survives to be evicted.
  EXPECT_FALSE(cache.Put(KeyFor(4), ValueFor(4), 1));
  EXPECT_FALSE(cache.Put(KeyFor(5), ValueFor(5), 1));
  EXPECT_FALSE(cache.Put(KeyFor(6), ValueFor(6), 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(Lookup(cache, 4, 1), 4);
  EXPECT_EQ(Lookup(cache, 5, 1), 5);
  EXPECT_EQ(Lookup(cache, 6, 1), 6);
  const ShardedResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.invalidations, 3u);
  EXPECT_EQ(stats.evictions, 0u);

  // An advance to an epoch already reached is ignored.
  EXPECT_EQ(cache.AdvanceEpoch(1), 0u);
  EXPECT_EQ(cache.AdvanceEpoch(0), 0u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(Lookup(cache, 6, 1), 6);
}

TEST(ResultCacheTest, StalePutIsRejected) {
  ShardedResultCache cache(/*capacity=*/8, /*num_shards=*/2);
  cache.AdvanceEpoch(1);
  // Computed on epoch 0, inserted after the advance to 1: rejected.
  EXPECT_FALSE(cache.Put(KeyFor(1), ValueFor(1), 0));
  EXPECT_EQ(Lookup(cache, 1, 1), -1);
  EXPECT_EQ(cache.GetStats().rejected_puts, 1u);
  // Computed on the current epoch: kept.
  cache.Put(KeyFor(2), ValueFor(2), 1);
  EXPECT_EQ(Lookup(cache, 2, 1), 2);

  // Two epochs behind is no better than one.
  cache.AdvanceEpoch(3);
  cache.Put(KeyFor(3), ValueFor(3), 1);
  cache.Put(KeyFor(4), ValueFor(4), 2);
  EXPECT_EQ(Lookup(cache, 3, 3), -1);
  EXPECT_EQ(Lookup(cache, 4, 3), -1);
  EXPECT_EQ(cache.GetStats().rejected_puts, 3u);
  EXPECT_EQ(cache.size(), 0u);
}

// Hits on shared reader locks race Puts (with evictions and stale-Put
// rejections) and epoch sweeps. A hit must return the value stored under
// its key, never another key's, and the counters must add up once
// everyone stops.
TEST(ResultCacheTest, HitsRacingPutsAndSweepsReturnTheirOwnValue) {
  ShardedResultCache cache(/*capacity=*/16, /*num_shards=*/2);
  constexpr uint32_t kKeys = 48;
  constexpr int kReaders = 3;
  constexpr int kRounds = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r]() {
      std::vector<ppr::ScoredAnswer> out;
      uint64_t n = 0;
      for (uint32_t i = static_cast<uint32_t>(r);
           !stop.load(std::memory_order_relaxed); ++i) {
        const uint32_t id = i % kKeys;
        out.clear();
        if (cache.Get(KeyFor(id), ~uint64_t{0}, &out) &&
            (out.size() != 1 || out.front().node != id)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        ++n;
      }
      lookups.fetch_add(n, std::memory_order_relaxed);
    });
  }
  std::thread writer([&]() {
    uint64_t epoch = 0;
    for (int round = 0; round < kRounds; ++round) {
      const uint32_t id = static_cast<uint32_t>(round) % kKeys;
      // Every third value was computed one epoch back and, past the first
      // advance, is rejected.
      cache.Put(KeyFor(id), ValueFor(id),
                round % 3 == 0 && epoch > 0 ? epoch - 1 : epoch);
      if (round % 97 == 0) cache.AdvanceEpoch(++epoch);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  const ShardedResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.rejected_puts, 0u);
  EXPECT_LE(cache.size(), 16u);
}

}  // namespace
}  // namespace kgov::serve
