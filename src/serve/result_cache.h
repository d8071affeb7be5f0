// Sharded CLOCK cache of per-seed ranking results.
//
// The serving hot path answers many repeats of the same query seed between
// graph updates; a hit skips a miss's propagation and top-k selection.
// This cache memoizes ranked answers keyed by the exact seed bytes. Each
// entry carries the epoch it was computed on, and every epoch advance
// drops every entry: a published epoch changes some weight bitwise, and at
// L = 5 a query reads the out-edges of most of the graph, so nothing finer
// than a full sweep keeps anything (docs/streaming.md has the measurement).
//
// Validity rules:
//  * Get(key, reader_epoch) hits only entries with computed_epoch <=
//    reader_epoch. Every entry resident after AdvanceEpoch(E) returns was
//    computed on E or later (see Put below), so a reader pinned on E gets
//    exactly what a recompute on E returns, and a reader still pinned on
//    an older epoch gets none of E's entries.
//  * Put rejects (counts, does not insert) a value computed on an epoch
//    older than current_epoch_. It reads current_epoch_ under the shard's
//    writer lock, which closes the race with a concurrent advance:
//
// Happens-before. AdvanceEpoch(E) release-stores E into current_epoch_,
// then takes each shard's writer lock in turn and drops its entries. Take
// a Put of a value computed on c < E into shard S. Its critical section
// on S is ordered against the sweep's:
//  * Put's first: its entry is resident when the sweep locks S, and the
//    sweep drops it.
//  * the sweep's first: the sweep's store of E precedes its unlock of S,
//    which precedes Put's lock of S, so Put's acquire load reads E (or a
//    later epoch) and rejects the value.
// Either way no value older than E survives the advance. A Put that reads
// a stale current_epoch_ before the sweep reaches its shard inserts an
// entry the sweep then drops.
//
// Sharded, and CLOCK within a shard, so a hit shares as little as it can:
// each shard owns a reader-writer lock, a slot array and a key -> slot
// index, and a key touches exactly one shard. A hit (Get) takes the
// shard's READER lock, so hits on one shard run side by side, and marks
// its slot referenced with a relaxed store (none when the bit is already
// set); it moves nothing. Put, eviction and the AdvanceEpoch sweep take
// the WRITER lock. Eviction is second chance: the hand clears referenced
// slots and evicts the first unreferenced one, so an entry hit since the
// hand last passed survives one more pass. A call holds at most one shard
// lock at a time, and the cache has no other lock.
//
// Readers learn their epoch from serve::QueryEngine, never from this
// cache. The engine calls AdvanceEpoch(E) under its exclusive epoch lock,
// then swaps its pinned epoch, then release-stores E into its atomic
// pinned-epoch number, all before unlocking. A reader reaches E only
// through that number (an acquire load that reads E, or the reader lock
// under which it copies the pin), so AdvanceEpoch(E), its sweep's writer
// unlocks included, happens before the reader's Get takes a shard's
// reader lock: the reader cannot find an entry computed before E.

#ifndef KGOV_SERVE_RESULT_CACHE_H_
#define KGOV_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
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
/// NOT part of the key: an entry's computed epoch governs its validity
/// (see above). `*key` is overwritten, so a caller can reuse
/// one buffer and allocate nothing once it has grown.
void EncodeCacheKey(const ppr::QuerySeed& seed, std::string* key);

class ShardedResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Entries dropped by epoch advances.
    uint64_t invalidations = 0;
    /// Inserts Put rejected as computed before the current epoch.
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

  /// Inserts (or refreshes, marking it referenced) `key` with the epoch
  /// the value was computed on. Returns true when an entry was evicted to
  /// make room (lets the owner feed an eviction counter). A value computed
  /// before the current epoch is dropped instead (Stats.rejected_puts).
  bool Put(std::string_view key, std::vector<ppr::ScoredAnswer> value,
           uint64_t computed_epoch);

  /// Advances the cache to `epoch` and drops every entry. Returns how many
  /// entries were dropped (0 for an epoch already reached). Call BEFORE
  /// exposing the new epoch to readers.
  size_t AdvanceEpoch(uint64_t epoch);

  /// Monotonic counters since construction (exact once writers stop).
  Stats GetStats() const;

  /// Entries currently resident, summed over shards.
  size_t size() const;

 private:
  struct Entry {
    std::vector<ppr::ScoredAnswer> value;
    uint64_t computed_epoch = 0;
  };

  /// One CLOCK slot. `referenced` is set by hits under the shard's
  /// reader lock, through std::atomic_ref (racing hits store the same
  /// value), and read and cleared by the hand under the writer lock.
  struct Slot {
    /// The index node's key (node-based map: the address is stable).
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
    std::unordered_map<std::string, uint32_t, KeyHash, KeyEqual> index
        KGOV_GUARDED_BY(mu);
    /// The next slot eviction inspects.
    size_t hand KGOV_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const HashedKey& key) {
    return shards_[key.hash % shards_.size()];
  }

  /// The slot a new entry takes: a new one while the shard is below
  /// capacity, else the CLOCK victim (its entry unlinked, and `*evicted`
  /// set).
  uint32_t TakeSlot(Shard& shard, bool* evicted) KGOV_REQUIRES(shard.mu);

  size_t per_shard_capacity_;
  std::vector<Shard> shards_;

  /// The newest epoch AdvanceEpoch reached. Release-stored before the
  /// sweep; Put loads it (acquire) under its shard's writer lock.
  std::atomic<uint64_t> current_epoch_{0};

  // Striped (telemetry::Counter): a hit writes only its thread's cell.
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter evictions_;
  telemetry::Counter invalidations_;
  telemetry::Counter rejected_puts_;
};

}  // namespace kgov::serve

#endif  // KGOV_SERVE_RESULT_CACHE_H_
