// Delta-aware sharded CLOCK cache of per-seed ranking results.
//
// The serving hot path answers many repeats of the same query seed between
// graph updates; a hit skips a miss's propagation, top-k selection and
// dependency walk. This cache memoizes ranked answers keyed by the exact
// seed bytes. Each entry carries the partition clusters its score
// can depend on plus the epoch it was computed on, so an epoch swap only
// drops entries whose dependency set intersects the published
// changed-cluster delta (AdvanceEpoch) - the selective invalidation the
// streaming pipeline's hit-rate retention rides on. A full=true advance
// (unknown or too-large delta) degenerates to the old wholesale flush.
//
// The dependency set (serve::DependencySet) is the clusters of the nodes
// whose out-edges the entry's propagation read, taken from its own
// frontier log: touched[0, expanded), the frontiers of levels 1 .. L-1,
// L = max_length. It is exact because:
//  * PropagatePhi reads out-edges only when it advances a level, and it
//    advances exactly those frontiers (every cluster when the log reached
//    its |V| cap and may have dropped some);
//  * the optimizer's delta keys every bitwise weight change by its edge's
//    source cluster (DiffChangedClusters);
//  * so, level by level, an entry whose set misses every intervening
//    delta walks the same nodes with the same weights as a recompute.
//
// Validity rules (proved against the bitwise changed-set deltas the
// optimizer publishes; see docs/streaming.md):
//  * Get(key, reader_epoch) hits only entries with computed_epoch <=
//    reader_epoch. A surviving entry's dependencies are untouched by every
//    delta up to the cache's current epoch, so its value is bitwise
//    identical to a recompute on any epoch in [computed_epoch, current] -
//    including the reader's.
//  * Put validates the insert under the shard lock against the retained
//    epoch-change history: an in-flight result computed on an older epoch
//    is accepted only when the history proves every intervening delta
//    missed its dependency set, and rejected (counted, not inserted)
//    otherwise. AdvanceEpoch records the delta BEFORE sweeping shards, so
//    every stale insert either validates against the new record or is
//    removed by the sweep - it cannot slip between them.
//
// Sharded, and CLOCK within a shard, so a hit shares as little as it can:
// each shard owns a reader-writer lock, a slot array and a key -> slot
// index, and a key touches exactly one shard. A hit (Get) takes the
// shard's READER lock, so hits on one shard run side by side, and marks
// its slot referenced with a relaxed store (none when the bit is already
// set); it moves nothing. Put, eviction and the AdvanceEpoch sweep take
// the WRITER lock. Eviction is second chance: the hand clears referenced
// slots and evicts the first unreferenced one, so an entry hit since the
// hand last passed survives one more pass. The epoch-state mutex is never
// held while a shard is locked by AdvanceEpoch (Put nests it inside the
// shard's writer lock), so the two lock orders cannot deadlock.
//
// Readers learn their epoch from serve::QueryEngine, never from this
// cache. The engine calls AdvanceEpoch(E) under its exclusive epoch lock,
// then swaps its pinned epoch, then release-stores E into its atomic
// pinned-epoch number, all before unlocking. A reader reaches E only
// through that number (an acquire load that reads E, or the reader lock
// under which it copies the pin), so AdvanceEpoch(E), its sweep's writer
// unlocks included, happens before the reader's Get takes a shard's
// reader lock: the reader cannot find an entry the delta into E dropped.
// A reader still serving an older pin E' gets only entries computed on
// E' or earlier, which by the first validity rule are bitwise-valid at
// E'.

#ifndef KGOV_SERVE_RESULT_CACHE_H_
#define KGOV_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "ppr/query_seed.h"
#include "ppr/ranking.h"
#include "telemetry/metrics.h"

namespace kgov::serve {

/// Writes the exact binary cache key into `*key`: the seed's links, byte
/// for byte. Two seeds collide iff they are bitwise identical, so a cache
/// hit returns exactly what a fresh propagation of that seed would return
/// (the bitwise-identity guarantee the serving tests pin down). Epochs are
/// NOT part of the key: entry validity across epochs is governed by the
/// dependency metadata above. `*key` is overwritten, so a caller can reuse
/// one buffer and allocate nothing once it has grown.
void EncodeCacheKey(const ppr::QuerySeed& seed, std::string* key);

class ShardedResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Entries dropped by epoch advances and InvalidateAll.
    uint64_t invalidations = 0;
    /// AdvanceEpoch calls that swept selectively vs dropped everything.
    uint64_t selective_sweeps = 0;
    uint64_t full_sweeps = 0;
    /// Stale inserts rejected by Put's history validation.
    uint64_t rejected_puts = 0;
  };

  /// `capacity` is the total entry budget, split evenly across
  /// `num_shards` shards (each shard gets at least one slot).
  ShardedResultCache(size_t capacity, size_t num_shards);

  ShardedResultCache(const ShardedResultCache&) = delete;
  ShardedResultCache& operator=(const ShardedResultCache&) = delete;

  /// On hit copies the cached ranking into `*out`, marks the entry
  /// referenced, and returns true. Only entries computed on the reader's
  /// epoch or earlier qualify (see validity rules above).
  bool Get(std::string_view key, uint64_t reader_epoch,
           std::vector<ppr::ScoredAnswer>* out);

  /// Inserts (or refreshes, marking it referenced) `key` with its
  /// dependency clusters (sorted unique; see
  /// stream::CanonicalizeClusterSet) and the epoch the value was computed
  /// on. Returns true when an entry was evicted to make room
  /// (lets the owner feed an eviction counter). A stale insert the
  /// epoch-change history cannot prove safe is dropped instead
  /// (Stats.rejected_puts).
  bool Put(std::string_view key, std::vector<ppr::ScoredAnswer> value,
           std::vector<uint32_t> deps, uint64_t computed_epoch);

  /// Advances the cache to `epoch`, recording that exactly the clusters
  /// in `changed` (sorted unique) differ from the previous epoch, then
  /// drops every entry whose dependency set intersects them. full=true
  /// means the delta is unknown or too large: everything is dropped and
  /// the history is poisoned for older in-flight Puts. Returns how many
  /// entries were dropped. Call BEFORE exposing the new epoch to readers.
  size_t AdvanceEpoch(uint64_t epoch, const std::vector<uint32_t>& changed,
                      bool full);

  /// Drops every entry without recording an epoch change (a pure memory
  /// release; entry validity never depended on it). Returns the count.
  size_t InvalidateAll();

  /// Monotonic counters since construction (exact once writers stop).
  Stats GetStats() const;

  /// Entries currently resident, summed over shards.
  size_t size() const;

 private:
  struct Entry {
    std::vector<ppr::ScoredAnswer> value;
    /// Partition clusters the value's scores can depend on, sorted.
    std::vector<uint32_t> deps;
    uint64_t computed_epoch = 0;
  };

  /// One recorded AdvanceEpoch: the clusters that changed moving from
  /// epoch `from` to epoch `to`. Records chain (from == previous to).
  struct EpochChange {
    uint64_t from = 0;
    uint64_t to = 0;
    std::vector<uint32_t> changed;
    bool full = false;
  };

  /// One CLOCK slot. `referenced` is set by hits under the shard's
  /// reader lock, through std::atomic_ref (racing hits store the same
  /// value), and read and cleared by the hand under the writer lock.
  struct Slot {
    /// The index node's key (node-based map: the address is stable), or
    /// null for a slot a sweep freed.
    const std::string* key = nullptr;
    Entry entry;
    mutable uint8_t referenced = 0;
  };

  /// A key with its hash, computed once per call: the hash picks the
  /// shard and, through the transparent KeyHash, the index bucket.
  struct HashedKey {
    std::string_view bytes;
    size_t hash;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
    size_t operator()(const HashedKey& key) const { return key.hash; }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
    bool operator()(const HashedKey& a, std::string_view b) const {
      return a.bytes == b;
    }
    bool operator()(std::string_view a, const HashedKey& b) const {
      return a == b.bytes;
    }
  };

  /// Aligned so one shard's lock word never shares a cache line with
  /// another shard's.
  struct alignas(telemetry::kCacheLineBytes) Shard {
    mutable SharedMutex mu{KGOV_LOCK_RANK(kServeCacheShard)};
    /// At most per_shard_capacity_ slots, grown on demand.
    std::vector<Slot> slots KGOV_GUARDED_BY(mu);
    /// Slots a sweep freed; Put reuses them before the hand evicts.
    std::vector<uint32_t> free KGOV_GUARDED_BY(mu);
    std::unordered_map<std::string, uint32_t, KeyHash, KeyEqual> index
        KGOV_GUARDED_BY(mu);
    /// The next slot eviction inspects.
    size_t hand KGOV_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const HashedKey& key) {
    return shards_[key.hash % shards_.size()];
  }

  /// The slot a new entry takes: a freed one, a new one while the shard
  /// is below capacity, else the CLOCK victim (its entry unlinked, and
  /// `*evicted` set).
  uint32_t TakeSlot(Shard& shard, bool* evicted) KGOV_REQUIRES(shard.mu);

  /// True when the history proves a value computed on `computed_epoch`
  /// with dependencies `deps` is still bitwise-valid at current_epoch_.
  bool ValidAtCurrent(const std::vector<uint32_t>& deps,
                      uint64_t computed_epoch) const
      KGOV_REQUIRES(epoch_mu_);

  size_t per_shard_capacity_;
  std::vector<Shard> shards_;

  /// Epoch-change bookkeeping. Never held while AdvanceEpoch holds a
  /// shard lock; Put acquires it nested inside its shard lock.
  mutable Mutex epoch_mu_{KGOV_LOCK_RANK(kServeCacheEpoch)};
  uint64_t current_epoch_ KGOV_GUARDED_BY(epoch_mu_) = 0;
  /// Oldest first, capped at kHistoryCapacity.
  std::deque<EpochChange> history_ KGOV_GUARDED_BY(epoch_mu_);

  // Striped (telemetry::Counter): a hit writes only its thread's cell.
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter evictions_;
  telemetry::Counter invalidations_;
  telemetry::Counter selective_sweeps_;
  telemetry::Counter full_sweeps_;
  telemetry::Counter rejected_puts_;
};

}  // namespace kgov::serve

#endif  // KGOV_SERVE_RESULT_CACHE_H_
