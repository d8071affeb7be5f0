#include "stream/ingest_queue.h"

#include <chrono>
#include <utility>

#include "telemetry/metrics.h"

namespace kgov::stream {

namespace {

// Ingest-side streaming telemetry; pointers resolved once.
struct StreamIngestMetrics {
  telemetry::Counter* votes_ingested;
  telemetry::Counter* shed_votes;
  telemetry::Counter* rejected_votes;
  telemetry::Gauge* queue_depth;

  static const StreamIngestMetrics& Get() {
    static const StreamIngestMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return StreamIngestMetrics{reg.GetCounter("stream.votes_ingested"),
                                 reg.GetCounter("stream.shed_votes"),
                                 reg.GetCounter("stream.rejected_votes"),
                                 reg.GetGauge("stream.queue_depth")};
    }();
    return m;
  }
};

}  // namespace

Status VoteIngestQueueOptions::Validate() const {
  if (capacity < 1) {
    return Status::InvalidArgument(
        "VoteIngestQueueOptions.capacity must be >= 1");
  }
  return Status::OK();
}

VoteIngestQueue::VoteIngestQueue(VoteIngestQueueOptions options,
                                 votes::VoteLogSink* log,
                                 std::function<bool()> dead_letter_full)
    : options_(options),
      options_status_(options.Validate()),
      log_(log),
      dead_letter_full_(std::move(dead_letter_full)) {}

Status VoteIngestQueue::Offer(votes::Vote vote) {
  return OfferImpl(std::move(vote), /*may_block=*/true);
}

Status VoteIngestQueue::TryOffer(votes::Vote vote) {
  return OfferImpl(std::move(vote), /*may_block=*/false);
}

Status VoteIngestQueue::OfferImpl(votes::Vote vote, bool may_block) {
  KGOV_RETURN_IF_ERROR(options_status_);
  const StreamIngestMetrics& metrics = StreamIngestMetrics::Get();
  MutexLock lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition("vote ingest queue is closed");
  }
  // Dead-letter backpressure: accepting a vote that can only displace an
  // abandoned one trades silent eviction for an honest shed.
  if (dead_letter_full_ && dead_letter_full_()) {
    ++stats_.shed_dead_letter_full;
    metrics.shed_votes->Increment();
    return Status::ResourceExhausted(
        "vote shed: dead-letter buffer at capacity");
  }
  if (queue_.size() >= options_.capacity) {
    if (!may_block) {
      ++stats_.rejected_queue_full;
      metrics.rejected_votes->Increment();
      return Status::ResourceExhausted("vote ingest queue full");
    }
    lock.Wait(not_full_, [this]() KGOV_REQUIRES(mu_) {
      return closed_ || queue_.size() < options_.capacity;
    });
    if (closed_) {
      return Status::FailedPrecondition("vote ingest queue is closed");
    }
    // The dead-letter buffer may have filled while this producer slept.
    if (dead_letter_full_ && dead_letter_full_()) {
      ++stats_.shed_dead_letter_full;
      metrics.shed_votes->Increment();
      return Status::ResourceExhausted(
          "vote shed: dead-letter buffer at capacity");
    }
  }
  if (log_ != nullptr) {
    // Durable-acknowledgment ordering: the append happens under mu_, so a
    // concurrent DrainAllAndRun checkpoint either sees this vote in the
    // queue or runs before the append (never between append and enqueue).
    KGOV_RETURN_IF_ERROR(log_->AppendVote(vote));
  }
  queue_.push_back(std::move(vote));
  ++stats_.accepted;
  metrics.votes_ingested->Increment();
  metrics.queue_depth->Set(static_cast<double>(queue_.size()));
  not_empty_.NotifyOne();
  return Status::OK();
}

StatusOr<std::vector<votes::Vote>> VoteIngestQueue::DrainUpTo(size_t max) {
  KGOV_RETURN_IF_ERROR(options_status_);
  std::vector<votes::Vote> drained;
  MutexLock lock(mu_);
  while (!queue_.empty() && drained.size() < max) {
    drained.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (!drained.empty()) {
    StreamIngestMetrics::Get().queue_depth->Set(
        static_cast<double>(queue_.size()));
    not_full_.NotifyAll();
  }
  return drained;
}

StatusOr<std::vector<votes::Vote>> VoteIngestQueue::WaitAndDrain(
    size_t max, int64_t timeout_ms) {
  KGOV_RETURN_IF_ERROR(options_status_);
  std::vector<votes::Vote> drained;
  MutexLock lock(mu_);
  auto ready = [this]() KGOV_REQUIRES(mu_) {
    return closed_ || !queue_.empty();
  };
  if (timeout_ms <= 0) {
    lock.Wait(not_empty_, ready);
  } else {
    lock.WaitFor(not_empty_, std::chrono::milliseconds(timeout_ms), ready);
  }
  while (!queue_.empty() && drained.size() < max) {
    drained.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (!drained.empty()) {
    StreamIngestMetrics::Get().queue_depth->Set(
        static_cast<double>(queue_.size()));
    not_full_.NotifyAll();
  }
  return drained;
}

Status VoteIngestQueue::DrainAllAndRun(
    const std::function<Status(std::vector<votes::Vote>)>& fn) {
  KGOV_RETURN_IF_ERROR(options_status_);
  MutexLock lock(mu_);
  std::vector<votes::Vote> drained;
  drained.reserve(queue_.size());
  while (!queue_.empty()) {
    drained.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  StreamIngestMetrics::Get().queue_depth->Set(0.0);
  // fn runs with mu_ held: producers (whose log appends nest under mu_)
  // stay blocked out, so a checkpoint inside fn sees a frozen WAL.
  Status result = fn(std::move(drained));
  not_full_.NotifyAll();
  return result;
}

Status VoteIngestQueue::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
  return Status::OK();
}

size_t VoteIngestQueue::size() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool VoteIngestQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

VoteIngestQueue::Stats VoteIngestQueue::GetStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace kgov::stream
