// OnlineKgOptimizer: the deployment loop around KgOptimizer.
//
// A live system interleaves serving and learning: votes stream in, and the
// graph should be re-optimized in batches while queries keep being served
// from a stable view. This class owns the evolving graph, buffers votes,
// flushes them through a configurable strategy when the batch is full (or
// on demand), and maintains a frozen CSR snapshot for the serving path -
// the pattern the paper's Examples 1-2 (recommendations, search clicks)
// imply but leave to the reader.
//
// Failure semantics (see docs/robustness.md):
//  * A failed flush PRESERVES the vote buffer - votes are never silently
//    dropped. Each vote carries an attempt count; votes that have failed
//    `max_vote_attempts` flushes move to a bounded dead-letter buffer.
//    This is the one recovery path for a solve that does not return OK:
//    the solver is never retried, so under kMultiVote such a solve fails
//    the flush, and its votes are re-queued.
//  * Votes quarantined by per-cluster failure isolation (under
//    kSplitMerge, a cluster whose solve does not return OK) are re-queued
//    for the next flush under the same bounded-attempt policy.
//  * A vote the judgment filter discards is settled by the flush that
//    judged it, whatever else shares its batch: it is never re-queued or
//    dead-lettered, counts as applied (nothing of it is folded in) and
//    once in online.votes_rejected. A batch of only such votes is an OK
//    flush that publishes no epoch.
//  * Before the serving snapshot is swapped, the optimized graph is
//    validated (finite weights, weights in bounds, out-weight
//    normalization, no edge drift). A violation rolls the flush back:
//    the serving graph and snapshot are left untouched and the batch is
//    re-queued.
//
// Serving is epoch-based: each flush that changes the graph publishes a
// new ServingEpoch (ref-counted CsrSnapshot + monotonically increasing epoch
// number). The writer builds the snapshot entirely outside the epoch lock
// and holds it only for the pointer swap, so readers never block on an
// optimize; a reader that pinned an epoch keeps serving from it until it
// drops its reference, regardless of how many flushes happen meanwhile.

#ifndef KGOV_CORE_ONLINE_OPTIMIZER_H_
#define KGOV_CORE_ONLINE_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/kg_optimizer.h"
#include "core/resilience.h"
#include "graph/csr.h"
#include "graph/graph_view.h"
#include "votes/vote_log.h"

namespace kgov::core {

/// One published serving epoch: a frozen snapshot plus its sequence
/// number. Copies share the snapshot (ref-counted), so readers pin an
/// epoch by value and serve from view() while flushes publish newer
/// epochs underneath.
struct ServingEpoch {
  std::shared_ptr<const graph::CsrSnapshot> snapshot;
  /// 0 for the initial graph; +1 per published flush.
  uint64_t epoch = 0;

  /// The epoch's read view; valid while `snapshot` is held.
  graph::GraphView view() const {
    return snapshot == nullptr ? graph::GraphView{} : snapshot->View();
  }
};

/// Which strategy flush batches go through.
enum class FlushStrategy {
  kMultiVote,
  kSplitMerge,
};

struct OnlineOptimizerOptions {
  OptimizerOptions optimizer;
  /// Votes buffered before an automatic flush (AddVote only).
  size_t batch_size = 25;
  FlushStrategy strategy = FlushStrategy::kSplitMerge;
  /// Flush attempts a vote may fail (batch error, rollback, or cluster
  /// quarantine) before it is moved to the dead-letter buffer.
  int max_vote_attempts = 3;
  /// Dead-letter capacity; the oldest entries are evicted beyond this.
  size_t dead_letter_capacity = 4096;
  /// Invariants checked by the validator that runs on every optimized
  /// graph before it is swapped in (a violation rolls the flush back). The
  /// weight bounds are widened to cover the encoder's configured bounds
  /// automatically.
  GraphValidatorOptions validator;

  /// Checks this struct and the nested OptimizerOptions; returns
  /// InvalidArgument naming the first offending field. OnlineKgOptimizer
  /// captures the result at construction; AddVote/Flush fail fast with it.
  Status Validate() const;
};

/// State carried across a restart: what durability::Recover reassembles
/// from the newest snapshot plus the WAL tail. Constructing an
/// OnlineKgOptimizer with one resumes exactly where the crashed process
/// checkpointed: the first published epoch is `epoch` (not 0), the vote
/// buffer holds the un-flushed acknowledged votes, and the dead-letter
/// buffer is restored (trimmed to dead_letter_capacity, oldest first).
struct RestoredState {
  /// Epoch number to republish (readers resume at the pre-crash epoch).
  uint64_t epoch = 0;
  /// Acknowledged votes that had not been folded into the graph.
  std::vector<votes::Vote> pending;
  /// Dead-letter buffer contents, oldest first.
  std::vector<votes::Vote> dead_letters;
};

/// Result of one flush.
struct FlushReport {
  /// Votes settled by this flush: folded into the graph, or discarded by
  /// the judgment filter (excludes quarantined).
  size_t votes_flushed = 0;
  /// Votes quarantined by cluster-failure isolation and re-queued.
  size_t votes_quarantined = 0;
  /// Votes moved to the dead-letter buffer by this flush.
  size_t votes_dead_lettered = 0;
  int constraints_total = 0;
  int constraints_satisfied = 0;
  double solve_seconds = 0.0;
  /// Whether this flush published a new serving epoch. A successful flush
  /// that applied no vote, or that left every weight bitwise unchanged,
  /// keeps the current epoch instead of forcing a pointless cache cycle.
  bool epoch_published = false;
};

/// Owns a knowledge graph that evolves under vote feedback. The write path
/// (AddVote/Flush) is single-threaded; serving()/CurrentEpoch() are safe to
/// call from concurrent reader threads and never block on an in-progress
/// optimize (the epoch lock guards only the pointer swap).
class OnlineKgOptimizer {
 public:
  /// Starts from a copy of `initial`.
  OnlineKgOptimizer(const graph::WeightedDigraph& initial,
                    OnlineOptimizerOptions options);

  /// Resumes from recovered state: `initial` is the recovered graph, and
  /// `restored` supplies the epoch to republish plus the surviving vote
  /// buffers (see durability::Recover).
  OnlineKgOptimizer(const graph::WeightedDigraph& initial,
                    OnlineOptimizerOptions options, RestoredState restored);

  /// Flushes any dead letters the attached vote log has not yet recorded
  /// (see PersistDeadLetters).
  ~OnlineKgOptimizer();

  /// The current (latest) graph.
  const graph::WeightedDigraph& graph() const { return graph_; }

  /// The current serving epoch; republished on every successful flush.
  /// Callers may hold the returned epoch across flushes (its snapshot
  /// stays valid and immutable), and a rolled-back flush never replaces
  /// it. Thread-safe.
  ServingEpoch serving() const KGOV_EXCLUDES(serving_mu_) {
    MutexLock lock(serving_mu_);
    return serving_;
  }

  /// Documented name for serving(): pins the current epoch by value.
  ServingEpoch CurrentEpoch() const { return serving(); }

  /// The latest published epoch number, without taking the epoch lock.
  /// The release store in PublishEpoch happens after serving_ is updated,
  /// so a reader that observes epoch N here is guaranteed to receive a
  /// snapshot at least as new as N from CurrentEpoch(). Intended as the
  /// serve path's cheap staleness probe (see serve::QueryEngine).
  uint64_t CurrentEpochNumber() const {
    return epoch_number_.load(std::memory_order_acquire);
  }

  /// Attaches the write-ahead vote log. Once set, AddVote appends each
  /// vote to the log BEFORE buffering it and rejects the vote if the
  /// append fails (acknowledged implies logged), and dead-lettered votes
  /// are recorded through AppendDeadLetter. `sink` must outlive this
  /// object (or be detached with nullptr first); pass nullptr to detach.
  /// Dead letters already buffered when a sink is attached are persisted
  /// on the next PersistDeadLetters() or destruction.
  void SetVoteLog(votes::VoteLogSink* sink) { vote_log_ = sink; }

  /// Writes every dead letter the attached log has not yet recorded
  /// through AppendDeadLetter, stopping at the first failure. Called from
  /// the destructor; call it earlier to bound loss from an abrupt exit.
  /// No-op without an attached sink.
  Status PersistDeadLetters();

  /// Buffers one vote; flushes automatically when the batch is full.
  /// Returns the flush report when a flush happened, an empty report
  /// otherwise (votes_flushed == 0). On a failed flush the error status is
  /// returned and the buffered votes are preserved for the next attempt
  /// (PendingVotes() stays non-zero until they succeed or dead-letter).
  /// With a vote log attached, a vote whose log append fails is rejected
  /// outright (not buffered) and the append error is returned.
  Result<FlushReport> AddVote(votes::Vote vote);

  /// Buffers one vote that has ALREADY been durably logged (the streaming
  /// ingest queue appends to the WAL before draining). Unlike AddVote this
  /// never writes the vote log and never auto-flushes: the caller controls
  /// the micro-batch cadence with Flush.
  Status IngestLogged(votes::Vote vote);

  /// Folds the current buffer into the graph with one solve over every
  /// buffered vote (no-op on an empty buffer). The solve's variables are
  /// the configured encoder.is_variable edges on the votes' walks, so only
  /// those edges and the out-weights of their sources can move. Publishes
  /// a new epoch only when the flush applied a vote and some weight of the
  /// resulting graph differs bitwise from the current one.
  /// FlushReport.epoch_published says what happened.
  Result<FlushReport> Flush();

  /// Dead-letter occupancy, readable from any thread (the ingest queue's
  /// shed probe). Tracks dead_letter_ with release/acquire ordering.
  size_t DeadLetterCount() const {
    return dead_letter_count_.load(std::memory_order_acquire);
  }

  /// True when the dead-letter buffer is at capacity: accepting further
  /// failing votes would evict abandoned ones. VoteIngestQueue uses this
  /// to shed instead (see stream.shed_votes).
  bool DeadLetterFull() const {
    return DeadLetterCount() >= options_.dead_letter_capacity;
  }

  /// Votes currently buffered (including re-queued failures).
  size_t PendingVotes() const { return buffer_.size(); }

  /// Copies of the buffered votes in flush order (attempt counters are
  /// internal). What a checkpoint must capture to resume after a crash.
  std::vector<votes::Vote> PendingVoteList() const;

  /// Total votes settled by successful flushes so far: folded into the
  /// graph or discarded by the judgment filter.
  size_t TotalVotesApplied() const { return total_applied_; }

  /// Votes abandoned after max_vote_attempts failed flushes, oldest first.
  const std::vector<votes::Vote>& DeadLetters() const { return dead_letter_; }

  /// Status of the most recent flush attempt (OK before any flush).
  const Status& LastFlushStatus() const { return last_flush_status_; }

  /// Flushes rolled back by the graph-update validator so far.
  size_t RollbackCount() const { return rollback_count_; }

 private:
  struct PendingVote {
    votes::Vote vote;
    int attempts = 0;
  };

  /// Re-queues `failed` votes with one more attempt on their counters;
  /// votes out of attempts move to the dead-letter buffer. Returns how
  /// many were dead-lettered.
  size_t RequeueOrDeadLetter(std::vector<PendingVote> failed);

  /// Publishes `snapshot` as the next epoch (outside work done, swap
  /// only).
  void PublishEpoch(std::shared_ptr<const graph::CsrSnapshot> snapshot)
      KGOV_EXCLUDES(serving_mu_);

  OnlineOptimizerOptions options_;
  // options_.Validate() captured at construction; AddVote/Flush fail fast
  // with it when not OK (the initial epoch still publishes so readers can
  // serve the unoptimized graph).
  Status options_status_;
  graph::WeightedDigraph graph_;
  mutable Mutex serving_mu_{KGOV_LOCK_RANK(kEpochPublish)};
  ServingEpoch serving_ KGOV_GUARDED_BY(serving_mu_);
  // Mirrors serving_.epoch for lock-free staleness checks. Stored with
  // release order while serving_mu_ is held (after serving_ is updated);
  // read with acquire in CurrentEpochNumber().
  std::atomic<uint64_t> epoch_number_{0};
  std::vector<PendingVote> buffer_;
  std::vector<votes::Vote> dead_letter_;
  // Mirrors dead_letter_.size() for lock-free reads from producer threads
  // (DeadLetterCount/DeadLetterFull). The write path updates it wherever
  // dead_letter_ changes.
  std::atomic<size_t> dead_letter_count_{0};
  // Parallel to dead_letter_: 1 if the entry has been written through the
  // vote log. Entries dead-lettered while a sink is attached persist
  // immediately; the rest (restored state, late-attached sink, append
  // failures) are retried by PersistDeadLetters()/the destructor.
  std::vector<uint8_t> dead_letter_persisted_;
  votes::VoteLogSink* vote_log_ = nullptr;
  Status last_flush_status_;
  size_t total_applied_ = 0;
  size_t rollback_count_ = 0;
};

}  // namespace kgov::core

#endif  // KGOV_CORE_ONLINE_OPTIMIZER_H_
