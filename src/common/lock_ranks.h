// The central lock-rank registry (docs/static_analysis.md, "Lock
// ranking").
//
// Every kgov::Mutex / kgov::SharedMutex in src/ declares a static rank
// from this table at construction:
//
//   mutable Mutex mu_{KGOV_LOCK_RANK(kStreamQueue)};
//
// The rank encodes the mutex's position in the process-wide acquisition
// order: a thread may only acquire a mutex whose rank is STRICTLY LOWER
// than every ranked mutex it already holds (outermost locks have the
// highest ranks, leaf locks the lowest; acquiring equal ranks while one
// is held is also a violation, since two same-class instances taken
// together are an ordering hazard). In lock-debug builds
// (KGOV_LOCK_DEBUG, on by default) the runtime detector in
// common/lock_rank.h enforces this on every acquisition and additionally
// maintains an acquired-after graph that catches cycles among unranked
// locks; in plain builds the rank argument compiles away entirely.
//
// How to pick a rank for a new mutex:
//  1. List every lock that can be HELD when yours is acquired: your rank
//     must be lower than all of them.
//  2. List every lock your critical sections acquire (directly or through
//     any callee): your rank must be higher than all of those.
//  3. Choose a value in the gap, leaving room on both sides (the table is
//     spaced by 50 for exactly this reason), add the enumerator here with
//     a comment naming the mutex it ranks, and keep the enumerators
//     sorted by value.
// If no gap exists, the new nesting is a cycle waiting to happen -
// restructure the critical sections instead of forcing a rank.
//
// The table (highest = outermost first):
//
//   kStreamQueue        > everything a micro-batch flush touches: the
//                         VoteIngestQueue mutex is held across the whole
//                         DrainAllAndRun checkpoint interleave.
//   kQueryEpochPin      > the serve-side refresh path: the QueryEngine
//                         epoch pin is held while advancing the result
//                         cache and re-pinning from the optimizer.
//   kServeCacheShard    : a ShardedResultCache shard lock, taken under
//                         the epoch pin by the refresh sweep; nothing of
//                         the cache nests under it.
//   kEpochPublish       < both write paths above: the optimizer's epoch
//                         swap lock is taken under the queue mutex (flush
//                         publication) and under the epoch pin (re-pin).
//   kThreadPool et al.  : infrastructure locks acquired from inside the
//                         paths above.
//   kTelemetry*/kLogging: leaf ranks - the metric registry and the log
//                         sink can be reached from almost anywhere
//                         (contract violations log wherever they fire),
//                         so nothing may nest under them.

#ifndef KGOV_COMMON_LOCK_RANKS_H_
#define KGOV_COMMON_LOCK_RANKS_H_

#include <cstdint>

namespace kgov::lockrank {

/// Static lock ranks, highest (outermost) to lowest (leaf). Values are
/// spaced so a new rank can slot between two existing ones without
/// renumbering the table.
enum class Rank : uint16_t {
  /// No declared rank: exempt from the rank-order check but still a node
  /// in the acquired-after cycle graph. Declaring one requires a
  /// `// kgov-lint: allow(lock-rank)` suppression.
  kUnranked = 0,

  /// Leaf: the logging sink's emit mutex (common/logging.cc). Contract
  /// and lock-order violations log from arbitrary lock contexts, so no
  /// lock may ever nest under it.
  kLogging = 100,
  /// telemetry::MetricRegistry::mu_ - first-use metric registration can
  /// happen under higher locks.
  kTelemetryRegistry = 200,
  /// FaultInjector::mu_ - injection sites sit inside durability, solver
  /// and pool critical sections.
  kFaultInjection = 250,
  /// The ParallelFor per-call failure-state mutex (common/thread_pool.cc)
  /// - reachable inline from callers holding write-path locks.
  kParallelForState = 300,
  /// The per-batch solve-report mutex in core::KgOptimizer (taken inside
  /// ParallelFor worker callbacks; only telemetry atomics run under it).
  kSolverBatchReport = 320,
  /// ThreadPool::mu_ - Submit is called from flush paths that hold the
  /// stream queue lock.
  kThreadPool = 350,
  /// stream::SerializedVoteLog::mu_ - producer WAL appends nest under the
  /// ingest-queue mutex.
  kVoteLogSerial = 400,
  /// core::OnlineKgOptimizer::serving_mu_ - the epoch-swap publication
  /// lock, taken under the stream queue (flush) and the query epoch pin
  /// (re-pin probe).
  kEpochPublish = 450,
  /// serve::ShardedResultCache per-shard mutex.
  kServeCacheShard = 700,
  /// serve::QueryEngine::epoch_mu_ - held (write mode) across the cache
  /// advance + re-pin sequence in MaybeRefreshEpoch.
  kQueryEpochPin = 800,
  /// stream::VoteIngestQueue::mu_ - the outermost lock in the process:
  /// held across WAL appends (acks) and the whole DrainAllAndRun
  /// checkpoint interleave.
  kStreamQueue = 900,
};

/// Human-readable rank-class name for violation messages and DOT dumps.
const char* RankName(Rank rank);

}  // namespace kgov::lockrank

/// Declares a mutex's static rank at its construction site:
///   Mutex mu_{KGOV_LOCK_RANK(kServeCacheShard)};
/// Expands to the enumerator; in non-lock-debug builds the Mutex
/// constructor discards it, so the registry costs nothing in release.
/// tools/lint/kgov_lint.py (lock-rank-coverage) flags declarations
/// without one.
#define KGOV_LOCK_RANK(name) ::kgov::lockrank::Rank::name

#endif  // KGOV_COMMON_LOCK_RANKS_H_
