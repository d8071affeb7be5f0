#include "stream/pipeline.h"

#include <utility>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace kgov::stream {

namespace {

// Consumer-side streaming telemetry; pointers resolved once.
struct StreamPipelineMetrics {
  telemetry::Counter* micro_batches;
  telemetry::Counter* epochs_published;
  telemetry::Counter* epochs_skipped;
  telemetry::Counter* flush_failures;
  telemetry::Counter* checkpoints;

  static const StreamPipelineMetrics& Get() {
    static const StreamPipelineMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return StreamPipelineMetrics{
          reg.GetCounter("stream.micro_batches"),
          reg.GetCounter("stream.epochs_published"),
          reg.GetCounter("stream.epochs_skipped"),
          reg.GetCounter("stream.flush_failures"),
          reg.GetCounter("stream.checkpoints")};
    }();
    return m;
  }
};

}  // namespace

Status StreamPipelineOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(queue.Validate());
  if (micro_batch_size < 1) {
    return Status::InvalidArgument(
        "StreamPipelineOptions.micro_batch_size must be >= 1");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Create(
    core::OnlineKgOptimizer* optimizer, StreamPipelineOptions options,
    durability::DurabilityManager* durability) {
  if (optimizer == nullptr) {
    return Status::InvalidArgument("StreamPipeline requires an optimizer");
  }
  KGOV_RETURN_IF_ERROR(options.Validate());
  if (options.checkpoint_every_batches > 0 && durability == nullptr) {
    return Status::InvalidArgument(
        "StreamPipelineOptions.checkpoint_every_batches requires a "
        "DurabilityManager");
  }
  return std::unique_ptr<StreamPipeline>(
      new StreamPipeline(optimizer, std::move(options), durability));
}

StreamPipeline::StreamPipeline(core::OnlineKgOptimizer* optimizer,
                               StreamPipelineOptions options,
                               durability::DurabilityManager* durability)
    : optimizer_(optimizer),
      options_(std::move(options)),
      durability_(durability),
      serialized_log_(durability == nullptr
                          ? nullptr
                          : std::make_unique<SerializedVoteLog>(
                                durability->wal())),
      queue_(options_.queue, serialized_log_.get(),
             [optimizer]() { return optimizer->DeadLetterFull(); }) {
  if (serialized_log_ != nullptr) {
    // Producer acks (queue) and consumer dead-letter records (optimizer
    // flush) now share one WAL; serialize both through the decorator.
    optimizer_->SetVoteLog(serialized_log_.get());
  }
}

StreamPipeline::~StreamPipeline() {
  Status stopped = Stop();
  if (!stopped.ok()) {
    KGOV_LOG(ERROR) << "stream pipeline shutdown failed: "
                    << stopped.ToString();
  }
  if (serialized_log_ != nullptr) {
    // The decorator dies with this object; hand the optimizer back the
    // bare WAL so later dead letters still persist.
    optimizer_->SetVoteLog(durability_->wal());
  }
}

Status StreamPipeline::Offer(votes::Vote vote) {
  return queue_.Offer(std::move(vote));
}

Status StreamPipeline::TryOffer(votes::Vote vote) {
  return queue_.TryOffer(std::move(vote));
}

Status StreamPipeline::Start() {
  if (stopped_.load()) {
    return Status::FailedPrecondition("stream pipeline already stopped");
  }
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("stream pipeline already running");
  }
  consumer_ = std::thread([this] { ConsumerLoop(); });
  return Status::OK();
}

Status StreamPipeline::Stop() {
  if (stopped_.exchange(true)) return Status::OK();
  KGOV_RETURN_IF_ERROR(queue_.Close());
  if (consumer_.joinable()) consumer_.join();
  running_.store(false);
  // Final micro-batch: whatever was queued when the consumer exited.
  Status final_status = Status::OK();
  while (true) {
    StatusOr<std::vector<votes::Vote>> drained =
        queue_.DrainUpTo(options_.micro_batch_size);
    KGOV_RETURN_IF_ERROR(drained.status());
    if (drained.value().empty()) break;
    Status processed = ProcessBatch(std::move(drained.value()));
    if (!processed.ok() && final_status.ok()) final_status = processed;
  }
  return final_status;
}

StatusOr<size_t> StreamPipeline::DrainOnce(size_t max) {
  if (running_.load()) {
    return Status::FailedPrecondition(
        "DrainOnce requires the background consumer to be stopped");
  }
  StatusOr<std::vector<votes::Vote>> drained = queue_.DrainUpTo(max);
  KGOV_RETURN_IF_ERROR(drained.status());
  const size_t count = drained.value().size();
  if (count > 0) {
    KGOV_RETURN_IF_ERROR(ProcessBatch(std::move(drained.value())));
  }
  return count;
}

void StreamPipeline::ConsumerLoop() {
  while (true) {
    StatusOr<std::vector<votes::Vote>> drained = queue_.WaitAndDrain(
        options_.micro_batch_size, options_.max_batch_delay_ms);
    if (!drained.ok()) {
      KGOV_LOG(ERROR) << "stream drain failed: "
                      << drained.status().ToString();
      return;
    }
    if (drained.value().empty()) {
      if (queue_.closed()) return;
      continue;
    }
    Status processed = ProcessBatch(std::move(drained.value()));
    if (!processed.ok()) {
      // Votes stay pending in the optimizer (bounded-attempt re-queue)
      // and are retried with the next micro-batch.
      KGOV_LOG(WARNING) << "stream micro-batch failed (votes re-queued): "
                        << processed.ToString();
    }
  }
}

Status StreamPipeline::ProcessBatch(std::vector<votes::Vote> batch) {
  const StreamPipelineMetrics& metrics = StreamPipelineMetrics::Get();
  for (votes::Vote& vote : batch) {
    KGOV_RETURN_IF_ERROR(optimizer_->IngestLogged(std::move(vote)));
    votes_processed_.fetch_add(1, std::memory_order_relaxed);
  }
  micro_batches_.fetch_add(1, std::memory_order_relaxed);
  metrics.micro_batches->Increment();

  Result<core::FlushReport> flushed = optimizer_->Flush();
  if (!flushed.ok()) {
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    metrics.flush_failures->Increment();
    return flushed.status();
  }
  if (flushed.value().epoch_published) {
    epochs_published_.fetch_add(1, std::memory_order_relaxed);
    metrics.epochs_published->Increment();
  } else {
    publications_skipped_.fetch_add(1, std::memory_order_relaxed);
    metrics.epochs_skipped->Increment();
  }
  return MaybeCheckpoint();
}

Status StreamPipeline::MaybeCheckpoint() {
  if (options_.checkpoint_every_batches == 0 || durability_ == nullptr) {
    return Status::OK();
  }
  if (micro_batches_.load(std::memory_order_relaxed) %
          options_.checkpoint_every_batches !=
      0) {
    return Status::OK();
  }
  // The checkpoint interleave: drain the queue into the optimizer's
  // pending buffer and checkpoint while producers are locked out, so no
  // acknowledged vote can sit in a WAL segment the checkpoint GCs without
  // being captured as pending state.
  Status checkpointed = queue_.DrainAllAndRun(
      [this](std::vector<votes::Vote> drained) -> Status {
        for (votes::Vote& vote : drained) {
          KGOV_RETURN_IF_ERROR(optimizer_->IngestLogged(std::move(vote)));
          votes_processed_.fetch_add(1, std::memory_order_relaxed);
        }
        return durability_->Checkpoint(*optimizer_,
                                       options_.checkpoint_entities,
                                       options_.checkpoint_documents);
      });
  if (!checkpointed.ok()) {
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    return checkpointed;
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  StreamPipelineMetrics::Get().checkpoints->Increment();
  return Status::OK();
}

StreamPipeline::Stats StreamPipeline::GetStats() const {
  Stats stats;
  stats.votes_processed = votes_processed_.load(std::memory_order_relaxed);
  stats.micro_batches = micro_batches_.load(std::memory_order_relaxed);
  stats.flush_failures = flush_failures_.load(std::memory_order_relaxed);
  stats.epochs_published = epochs_published_.load(std::memory_order_relaxed);
  stats.publications_skipped =
      publications_skipped_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace kgov::stream
