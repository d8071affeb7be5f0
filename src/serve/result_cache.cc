#include "serve/result_cache.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "stream/epoch_delta.h"

namespace kgov::serve {

namespace {

// Epoch-change records retained for Put validation. Deep enough that an
// in-flight propagation would have to straddle this many epoch swaps
// before its insert gets (conservatively) rejected.
constexpr size_t kHistoryCapacity = 32;

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
        // The entry survived every sweep up to the cache's current epoch,
        // so its dependencies are untouched on [computed, current] -
        // which contains the reader's epoch (readers pin at most
        // current). Store the bit only when it is clear, so repeated hits
        // on a hot entry write nothing shared.
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

bool ShardedResultCache::ValidAtCurrent(const std::vector<uint32_t>& deps,
                                        uint64_t computed_epoch) const {
  if (computed_epoch >= current_epoch_) return true;
  // Coverage: the chained records must reach back to computed_epoch;
  // trimmed history means the intervening deltas are unknowable.
  if (history_.empty() || history_.front().from > computed_epoch) {
    return false;
  }
  for (const EpochChange& change : history_) {
    if (change.to <= computed_epoch) continue;
    if (change.full) return false;
    if (stream::ClustersIntersect(deps, change.changed)) return false;
  }
  return true;
}

uint32_t ShardedResultCache::TakeSlot(Shard& shard, bool* evicted) {
  *evicted = false;
  if (!shard.free.empty()) {
    const uint32_t at = shard.free.back();
    shard.free.pop_back();
    return at;
  }
  if (shard.slots.size() < per_shard_capacity_) {
    shard.slots.emplace_back();
    return static_cast<uint32_t>(shard.slots.size() - 1);
  }
  // Every slot is resident (no free ones), so the hand finds a victim
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
                             std::vector<uint32_t> deps,
                             uint64_t computed_epoch) {
  const HashedKey hashed{key, KeyHash{}(key)};
  Shard& shard = ShardFor(hashed);
  WriterMutexLock lock(shard.mu);
  {
    // Stale-insert guard, under the shard lock so a concurrent
    // AdvanceEpoch either already recorded its delta (we validate against
    // it) or will sweep this shard after we insert (it waits on shard.mu).
    MutexLock epoch_lock(epoch_mu_);
    if (!ValidAtCurrent(deps, computed_epoch)) {
      rejected_puts_.Increment();
      return false;
    }
  }
  Entry entry{std::move(value), std::move(deps), computed_epoch};
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

size_t ShardedResultCache::AdvanceEpoch(uint64_t epoch,
                                        const std::vector<uint32_t>& changed,
                                        bool full) {
  {
    MutexLock epoch_lock(epoch_mu_);
    if (epoch <= current_epoch_) return 0;  // raced or replayed advance
    history_.push_back(EpochChange{current_epoch_, epoch, changed, full});
    while (history_.size() > kHistoryCapacity) history_.pop_front();
    current_epoch_ = epoch;
  }
  // Sweep without the epoch mutex (Put nests it inside a shard lock; the
  // reverse nesting here would deadlock). Every entry inserted after the
  // record above validated against it, so the sweep misses nothing.
  if (full) {
    full_sweeps_.Increment();
    return InvalidateAll();
  }
  selective_sweeps_.Increment();
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    WriterMutexLock lock(shard.mu);
    for (auto it = shard.index.begin(); it != shard.index.end();) {
      Slot& slot = shard.slots[it->second];
      if (stream::ClustersIntersect(slot.entry.deps, changed)) {
        slot = Slot{};
        shard.free.push_back(it->second);
        it = shard.index.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  invalidations_.Increment(dropped);
  return dropped;
}

size_t ShardedResultCache::InvalidateAll() {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    WriterMutexLock lock(shard.mu);
    dropped += shard.index.size();
    shard.index.clear();
    shard.slots.clear();
    shard.free.clear();
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
  stats.selective_sweeps = selective_sweeps_.Value();
  stats.full_sweeps = full_sweeps_.Value();
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
