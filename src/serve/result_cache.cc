#include "serve/result_cache.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace kgov::serve {

namespace {

template <typename T>
void AppendBytes(std::string* key, const T& value) {
  const char* bytes = reinterpret_cast<const char*>(&value);
  key->append(bytes, sizeof(T));
}

}  // namespace

void EncodeCacheKey(const ppr::QuerySeed& seed, std::string* key) {
  key->clear();
  key->reserve(seed.links.size() *
               (sizeof(graph::NodeId) + sizeof(double)));
  for (const auto& [node, weight] : seed.links) {
    AppendBytes(key, node);
    AppendBytes(key, weight);
  }
}

ShardedResultCache::ShardedResultCache(size_t capacity, size_t num_shards)
    : per_shard_capacity_(
          std::max<size_t>(1, capacity / std::max<size_t>(1, num_shards))),
      shards_(std::max<size_t>(1, num_shards)) {}

bool ShardedResultCache::Get(std::string_view key, uint64_t reader_epoch,
                             std::vector<ppr::ScoredAnswer>* out) {
  const HashedKey hashed{key, KeyHash{}(key)};
  Shard& shard = ShardFor(hashed);
  {
    ReaderMutexLock lock(shard.mu);
    const auto& index = shard.index;
    auto it = index.find(hashed);
    if (it != index.end()) {
      const Slot& slot = std::as_const(shard.slots)[it->second];
      if (slot.entry.computed_epoch <= reader_epoch) {
        // Every resident entry was computed on the cache's current epoch
        // (see the header), and the reader's epoch is at least the
        // entry's, so the value is what a recompute there returns. Store
        // the bit only when it is clear, so repeated hits on a hot entry
        // write nothing shared.
        std::atomic_ref<uint8_t> referenced(slot.referenced);
        if (referenced.load(std::memory_order_relaxed) == 0) {
          referenced.store(1, std::memory_order_relaxed);
        }
        *out = slot.entry.value;
        hits_.Increment();
        return true;
      }
    }
  }
  misses_.Increment();
  return false;
}

uint32_t ShardedResultCache::TakeSlot(Shard& shard, bool* evicted) {
  *evicted = false;
  if (shard.slots.size() < per_shard_capacity_) {
    shard.slots.emplace_back();
    return static_cast<uint32_t>(shard.slots.size() - 1);
  }
  // Every slot is resident, so the hand finds a victim
  // within two turns: it gives each referenced slot a second chance.
  while (true) {
    const uint32_t at = static_cast<uint32_t>(shard.hand);
    shard.hand = (shard.hand + 1) % shard.slots.size();
    Slot& slot = shard.slots[at];
    if (slot.referenced != 0) {
      slot.referenced = 0;
      continue;
    }
    shard.index.erase(shard.index.find(*slot.key));
    *evicted = true;
    return at;
  }
}

bool ShardedResultCache::Put(std::string_view key,
                             std::vector<ppr::ScoredAnswer> value,
                             uint64_t computed_epoch) {
  const HashedKey hashed{key, KeyHash{}(key)};
  Shard& shard = ShardFor(hashed);
  WriterMutexLock lock(shard.mu);
  // Stale-insert guard, under the shard lock: a concurrent AdvanceEpoch
  // either stored its epoch before sweeping this shard (this load reads
  // it) or will sweep this shard after the insert (see the header).
  if (computed_epoch < current_epoch_.load(std::memory_order_acquire)) {
    rejected_puts_.Increment();
    return false;
  }
  Entry entry{std::move(value), computed_epoch};
  auto it = shard.index.find(hashed);
  if (it != shard.index.end()) {
    Slot& slot = shard.slots[it->second];
    slot.entry = std::move(entry);
    slot.referenced = 1;
    return false;
  }
  bool evicted = false;
  const uint32_t at = TakeSlot(shard, &evicted);
  if (evicted) evictions_.Increment();
  Slot& slot = shard.slots[at];
  // The one copy of the key bytes a miss makes.
  slot.key = &shard.index.emplace(std::string(key), at).first->first;
  slot.entry = std::move(entry);
  slot.referenced = 0;
  return evicted;
}

size_t ShardedResultCache::AdvanceEpoch(uint64_t epoch) {
  uint64_t current = current_epoch_.load(std::memory_order_relaxed);
  do {
    if (epoch <= current) return 0;  // raced or replayed advance
  } while (!current_epoch_.compare_exchange_weak(
      current, epoch, std::memory_order_release, std::memory_order_relaxed));
  // Stored before the sweep: a Put that locks a shard after the sweep
  // released it reads the new epoch and rejects an older value.
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    WriterMutexLock lock(shard.mu);
    dropped += shard.index.size();
    shard.index.clear();
    shard.slots.clear();
    shard.hand = 0;
  }
  invalidations_.Increment(dropped);
  return dropped;
}

ShardedResultCache::Stats ShardedResultCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.evictions = evictions_.Value();
  stats.invalidations = invalidations_.Value();
  stats.rejected_puts = rejected_puts_.Value();
  return stats;
}

size_t ShardedResultCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    total += shard.index.size();
  }
  return total;
}

}  // namespace kgov::serve
