#include "serve/result_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>

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

std::string EncodeCacheKey(const ppr::QuerySeed& seed) {
  std::string key;
  key.reserve(seed.links.size() *
              (sizeof(graph::NodeId) + sizeof(double)));
  for (const auto& [node, weight] : seed.links) {
    AppendBytes(&key, node);
    AppendBytes(&key, weight);
  }
  return key;
}

ShardedResultCache::ShardedResultCache(size_t capacity, size_t num_shards)
    : per_shard_capacity_(
          std::max<size_t>(1, capacity / std::max<size_t>(1, num_shards))),
      shards_(std::max<size_t>(1, num_shards)) {}

ShardedResultCache::Shard& ShardedResultCache::ShardFor(
    const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool ShardedResultCache::Get(const std::string& key, uint64_t reader_epoch,
                             std::vector<ppr::ScoredAnswer>* out) {
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end() &&
        it->second->second.computed_epoch <= reader_epoch) {
      // The entry survived every sweep up to the cache's current epoch,
      // so its dependencies are untouched on [computed, current] - which
      // contains the reader's epoch (readers pin at most current).
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->second.value;
      hits_.Increment();
      return true;
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

bool ShardedResultCache::Put(const std::string& key,
                             std::vector<ppr::ScoredAnswer> value,
                             std::vector<uint32_t> deps,
                             uint64_t computed_epoch) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
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
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second =
        Entry{std::move(value), std::move(deps), computed_epoch};
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return false;
  }
  bool evicted = false;
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.Increment();
    evicted = true;
  }
  shard.lru.emplace_front(
      key, Entry{std::move(value), std::move(deps), computed_epoch});
  shard.index.emplace(key, shard.lru.begin());
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
    MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (stream::ClustersIntersect(it->second.deps, changed)) {
        shard.index.erase(it->first);
        it = shard.lru.erase(it);
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
    MutexLock lock(shard.mu);
    dropped += shard.lru.size();
    shard.index.clear();
    shard.lru.clear();
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
    MutexLock lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace kgov::serve
