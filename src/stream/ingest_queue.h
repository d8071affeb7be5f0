// VoteIngestQueue: the bounded, backpressured, WAL-ordered front door of
// the streaming write path.
//
// Producers (request handlers) call Offer/TryOffer from any thread; one
// consumer (the StreamPipeline) drains micro-batches. Three contracts:
//
//  * Durable acknowledgment stays AHEAD of optimization: with a vote log
//    attached, Offer appends the vote to the log before enqueueing it,
//    both under the queue mutex, so `Offer returned OK` implies `logged`
//    and a checkpoint can never observe a logged-but-invisible vote (see
//    DrainAllAndRun).
//  * Bounded: at `capacity` queued votes, Offer blocks (backpressure) and
//    TryOffer sheds with kResourceExhausted.
//  * Dead-letter backpressure: when the attached dead_letter_full probe
//    fires (the optimizer's dead-letter buffer is at capacity), new votes
//    are shed with kResourceExhausted instead of being accepted only to
//    silently evict an older abandoned vote later. Sheds are counted in
//    stream.shed_votes.
//
// Telemetry: stream.queue_depth (gauge), stream.votes_ingested,
// stream.shed_votes, stream.rejected_votes (queue-full TryOffer
// rejections).

#ifndef KGOV_STREAM_INGEST_QUEUE_H_
#define KGOV_STREAM_INGEST_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "votes/vote.h"
#include "votes/vote_log.h"

namespace kgov::stream {

struct VoteIngestQueueOptions {
  /// Maximum queued (accepted but not yet drained) votes.
  size_t capacity = 1024;

  /// Returns InvalidArgument naming the first offending field.
  Status Validate() const;
};

class VoteIngestQueue {
 public:
  /// `log` (nullable) is the durable-acknowledgment sink; it must be safe
  /// to call under the queue mutex (wrap shared sinks in
  /// SerializedVoteLog). `dead_letter_full` (nullable) is the producer-side
  /// shed probe; it must be thread-safe and non-blocking.
  VoteIngestQueue(VoteIngestQueueOptions options, votes::VoteLogSink* log,
                  std::function<bool()> dead_letter_full);

  VoteIngestQueue(const VoteIngestQueue&) = delete;
  VoteIngestQueue& operator=(const VoteIngestQueue&) = delete;

  /// Acknowledges one vote: logs it (when a sink is attached), then
  /// enqueues it. Blocks while the queue is full (bounded backpressure).
  /// kResourceExhausted = shed (dead-letter buffer full),
  /// kFailedPrecondition = closed, other errors = the log append failed
  /// (the vote was NOT acknowledged).
  Status Offer(votes::Vote vote) KGOV_EXCLUDES(mu_);

  /// Offer that never blocks: sheds with kResourceExhausted when the
  /// queue is full.
  Status TryOffer(votes::Vote vote) KGOV_EXCLUDES(mu_);

  /// Drains up to `max` votes without waiting (may return empty).
  StatusOr<std::vector<votes::Vote>> DrainUpTo(size_t max)
      KGOV_EXCLUDES(mu_);

  /// Blocks until at least one vote is queued, the queue is closed, or
  /// `timeout_ms` elapses (<= 0 waits indefinitely), then drains up to
  /// `max`. An empty result with OK status means timeout or closed-empty.
  StatusOr<std::vector<votes::Vote>> WaitAndDrain(size_t max,
                                                  int64_t timeout_ms)
      KGOV_EXCLUDES(mu_);

  /// Atomically drains EVERY queued vote and runs `fn` on them while new
  /// Offers are blocked out. This is the checkpoint interleave: fn folds
  /// the drained votes into the optimizer and checkpoints it, and because
  /// producer appends nest under the queue mutex, no vote can land in a
  /// WAL segment the checkpoint is about to garbage-collect without also
  /// being visible to the checkpointed state.
  Status DrainAllAndRun(
      const std::function<Status(std::vector<votes::Vote>)>& fn)
      KGOV_EXCLUDES(mu_);

  /// Closes the queue: wakes blocked producers and the consumer; further
  /// Offers fail with kFailedPrecondition. Queued votes remain drainable.
  Status Close() KGOV_EXCLUDES(mu_);

  size_t size() const KGOV_EXCLUDES(mu_);
  bool closed() const KGOV_EXCLUDES(mu_);

  struct Stats {
    uint64_t accepted = 0;
    /// Shed with kResourceExhausted because the dead-letter buffer was
    /// full (the stream.shed_votes satellite contract).
    uint64_t shed_dead_letter_full = 0;
    /// Shed/rejected because the queue itself was full.
    uint64_t rejected_queue_full = 0;
  };
  Stats GetStats() const KGOV_EXCLUDES(mu_);

 private:
  Status OfferImpl(votes::Vote vote, bool may_block) KGOV_EXCLUDES(mu_);

  const VoteIngestQueueOptions options_;
  const Status options_status_;
  votes::VoteLogSink* log_;
  std::function<bool()> dead_letter_full_;

  mutable Mutex mu_{KGOV_LOCK_RANK(kStreamQueue)};
  std::deque<votes::Vote> queue_ KGOV_GUARDED_BY(mu_);
  bool closed_ KGOV_GUARDED_BY(mu_) = false;
  Stats stats_ KGOV_GUARDED_BY(mu_);
  CondVar not_full_;
  CondVar not_empty_;
};

}  // namespace kgov::stream

#endif  // KGOV_STREAM_INGEST_QUEUE_H_
