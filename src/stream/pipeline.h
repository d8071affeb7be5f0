// StreamPipeline: the streaming write path, end to end.
//
//   producers --Offer--> VoteIngestQueue --micro-batch--> consumer thread
//        |                   |                               |
//        |                   +-- WAL append (ack)            +-- OnlineKgOptimizer::Flush
//        |                                                   +-- DurabilityManager::Checkpoint
//
// The pipeline replaces the batch-shaped AddVote loop: votes are
// acknowledged (durably logged) at Offer time, drained in micro-batches by
// one consumer thread, and folded in with the optimizer's one flush path,
// whose solve moves only edges on the buffered votes' walks. Each
// successful micro-batch that changes some weight bitwise publishes a
// ServingEpoch; serve::QueryEngine empties its result cache when it
// re-pins onto it.
//
// Ordering guarantees (docs/streaming.md):
//  * Offer OK implies the vote is in the WAL (when durability is wired).
//  * A checkpoint never garbage-collects a WAL segment holding an
//    acknowledged vote that the checkpointed state does not capture: the
//    checkpoint runs inside VoteIngestQueue::DrainAllAndRun, which drains
//    the queue into the optimizer's pending buffer while producers are
//    locked out.
//  * WAL appends from producers (acks) and from the consumer (dead-letter
//    records) are serialized through SerializedVoteLog.
//
// Telemetry: stream.micro_batches, stream.epochs_published,
// stream.epochs_skipped, stream.flush_failures, stream.checkpoints, plus
// the ingest counters in ingest_queue.h.

#ifndef KGOV_STREAM_PIPELINE_H_
#define KGOV_STREAM_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/online_optimizer.h"
#include "durability/manager.h"
#include "stream/ingest_queue.h"
#include "stream/serialized_vote_log.h"
#include "votes/vote.h"

namespace kgov::stream {

struct StreamPipelineOptions {
  VoteIngestQueueOptions queue;
  /// Votes drained per micro-batch (the incremental flush cadence).
  size_t micro_batch_size = 16;
  /// How long the consumer waits for the first vote of a micro-batch
  /// before re-checking for shutdown (<= 0 waits indefinitely).
  int64_t max_batch_delay_ms = 50;
  /// Run a durability checkpoint every N micro-batches (0 = never).
  /// Requires a DurabilityManager at Create.
  size_t checkpoint_every_batches = 0;
  /// Node-layout metadata recorded in checkpoint snapshot headers.
  uint64_t checkpoint_entities = 0;
  uint64_t checkpoint_documents = 0;

  /// Returns InvalidArgument naming the first offending field.
  Status Validate() const;
};

class StreamPipeline {
 public:
  /// Wires the pipeline onto `optimizer` (borrowed, must outlive the
  /// pipeline). With a DurabilityManager, the WAL becomes the queue's
  /// acknowledgment sink and the optimizer's dead-letter sink, both
  /// through one SerializedVoteLog; without one, votes are accepted
  /// unlogged. The optimizer's write path must not be driven elsewhere
  /// while the pipeline runs (single-consumer contract).
  static StatusOr<std::unique_ptr<StreamPipeline>> Create(
      core::OnlineKgOptimizer* optimizer, StreamPipelineOptions options,
      durability::DurabilityManager* durability);

  /// Stops the consumer and re-attaches the bare WAL to the optimizer.
  ~StreamPipeline();

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Acknowledges one vote (durably logged before queued). Thread-safe.
  /// Blocks under backpressure when the queue is full; sheds with
  /// kResourceExhausted when the dead-letter buffer is at capacity.
  Status Offer(votes::Vote vote);

  /// Non-blocking Offer: a full queue sheds instead of blocking.
  Status TryOffer(votes::Vote vote);

  /// Starts the background consumer thread.
  Status Start();

  /// Closes the queue, joins the consumer, and processes every remaining
  /// queued vote (final micro-batch). Idempotent.
  Status Stop();

  /// Manually pumps one micro-batch of up to `max` votes (test/tooling
  /// hook; fails with kFailedPrecondition while the background consumer
  /// is running). Returns the number of votes drained.
  StatusOr<size_t> DrainOnce(size_t max);

  struct Stats {
    uint64_t votes_processed = 0;
    uint64_t micro_batches = 0;
    uint64_t flush_failures = 0;
    uint64_t epochs_published = 0;
    /// Successful micro-batches that changed nothing bitwise (or applied
    /// no votes) and therefore published no epoch.
    uint64_t publications_skipped = 0;
    uint64_t checkpoints = 0;
    uint64_t checkpoint_failures = 0;
  };
  Stats GetStats() const;

  VoteIngestQueue& queue() { return queue_; }
  const VoteIngestQueue& queue() const { return queue_; }

 private:
  StreamPipeline(core::OnlineKgOptimizer* optimizer,
                 StreamPipelineOptions options,
                 durability::DurabilityManager* durability);

  /// Folds one drained micro-batch into the optimizer: ingest, flush,
  /// checkpoint cadence.
  Status ProcessBatch(std::vector<votes::Vote> batch);

  /// Runs the checkpoint interleave when the cadence is due.
  Status MaybeCheckpoint();

  void ConsumerLoop();

  core::OnlineKgOptimizer* optimizer_;
  StreamPipelineOptions options_;
  durability::DurabilityManager* durability_;
  std::unique_ptr<SerializedVoteLog> serialized_log_;
  VoteIngestQueue queue_;

  std::thread consumer_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<uint64_t> votes_processed_{0};
  std::atomic<uint64_t> micro_batches_{0};
  std::atomic<uint64_t> flush_failures_{0};
  std::atomic<uint64_t> epochs_published_{0};
  std::atomic<uint64_t> publications_skipped_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
};

}  // namespace kgov::stream

#endif  // KGOV_STREAM_PIPELINE_H_
