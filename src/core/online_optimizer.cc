#include "core/online_optimizer.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/contracts.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace kgov::core {

namespace {

// Deployment-loop telemetry; pointers resolved once.
struct OnlineMetrics {
  telemetry::Counter* flushes;
  telemetry::Counter* flush_failures;
  telemetry::Counter* rollbacks;
  telemetry::Counter* epoch_swaps;
  telemetry::Counter* epoch_skips;
  telemetry::Counter* votes_applied;
  telemetry::Counter* votes_rejected;
  telemetry::Counter* votes_quarantined;
  telemetry::Counter* dead_lettered;
  telemetry::Counter* dead_letter_evictions;
  telemetry::Counter* dead_letter_persisted;
  telemetry::Gauge* pending_votes;
  telemetry::Histogram* flush_span;

  static const OnlineMetrics& Get() {
    static const OnlineMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return OnlineMetrics{reg.GetCounter("online.flushes"),
                           reg.GetCounter("online.flush_failures"),
                           reg.GetCounter("online.rollbacks"),
                           reg.GetCounter("online.epoch_swaps"),
                           reg.GetCounter("online.epoch_skips"),
                           reg.GetCounter("online.votes_applied"),
                           reg.GetCounter("online.votes_rejected"),
                           reg.GetCounter("online.votes_quarantined"),
                           reg.GetCounter("online.dead_lettered"),
                           reg.GetCounter("online.dead_letter_evictions"),
                           reg.GetCounter("durability.dead_letter_persisted"),
                           reg.GetGauge("online.pending_votes"),
                           reg.GetHistogram("span.online.flush.seconds")};
    }();
    return m;
  }
};

// True when some edge weight differs bitwise between `before` and `after`
// (identical topology). Bitwise comparison is the ground truth publication
// hangs off: it is immune to normalization reproducing an "equal" weight
// through a different float path, and an unchanged bit pattern provably
// serves identical results.
bool AnyWeightChanged(const graph::WeightedDigraph& before,
                      const graph::WeightedDigraph& after) {
  KGOV_ASSERT(before.NumEdges() == after.NumEdges());
  for (size_t e = 0; e < before.NumEdges(); ++e) {
    const double a = before.edges()[e].weight;
    const double b = after.edges()[e].weight;
    if (std::memcmp(&a, &b, sizeof(double)) != 0) return true;
  }
  return false;
}

}  // namespace

Status OnlineOptimizerOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(optimizer.Validate());
  if (batch_size < 1) {
    return Status::InvalidArgument(
        "OnlineOptimizerOptions.batch_size must be >= 1");
  }
  if (max_vote_attempts < 1) {
    return Status::InvalidArgument(
        "OnlineOptimizerOptions.max_vote_attempts must be >= 1");
  }
  return Status::OK();
}

OnlineKgOptimizer::OnlineKgOptimizer(const graph::WeightedDigraph& initial,
                                     OnlineOptimizerOptions options)
    : options_(std::move(options)),
      options_status_(options_.Validate()),
      graph_(initial),
      serving_{std::make_shared<graph::CsrSnapshot>(graph_), 0} {
  // The validator must accept anything the optimizer may legally produce:
  // widen its weight band to cover the encoder's bounds (normalization can
  // push weights up to 1 regardless of the encoder's upper bound).
  GraphValidatorOptions& v = options_.validator;
  v.weight_lower_bound = std::min(
      v.weight_lower_bound, 0.0);  // SetWeight clamps negatives to zero
  v.weight_upper_bound =
      std::max({v.weight_upper_bound,
                options_.optimizer.encoder.weight_upper_bound, 1.0});
}

OnlineKgOptimizer::OnlineKgOptimizer(const graph::WeightedDigraph& initial,
                                     OnlineOptimizerOptions options,
                                     RestoredState restored)
    : OnlineKgOptimizer(initial, std::move(options)) {
  buffer_.reserve(restored.pending.size());
  for (votes::Vote& vote : restored.pending) {
    // Attempt counters are not checkpointed; a restored vote starts its
    // retry budget fresh rather than being dead-lettered by stale state.
    buffer_.push_back(PendingVote{std::move(vote), 0});
  }
  dead_letter_ = std::move(restored.dead_letters);
  if (dead_letter_.size() > options_.dead_letter_capacity) {
    dead_letter_.erase(dead_letter_.begin(),
                       dead_letter_.end() -
                           static_cast<ptrdiff_t>(
                               options_.dead_letter_capacity));
  }
  // Recovered dead letters came FROM the log; marking them persisted
  // prevents the destructor from re-appending (and duplicating) them.
  dead_letter_persisted_.assign(dead_letter_.size(), 1);
  dead_letter_count_.store(dead_letter_.size(), std::memory_order_release);
  MutexLock lock(serving_mu_);
  serving_.epoch = restored.epoch;
  epoch_number_.store(restored.epoch, std::memory_order_release);
}

OnlineKgOptimizer::~OnlineKgOptimizer() {
  Status persisted = PersistDeadLetters();
  if (!persisted.ok()) {
    KGOV_LOG(ERROR) << "dead-letter flush on shutdown failed: "
                    << persisted.ToString();
  }
}

Status OnlineKgOptimizer::PersistDeadLetters() {
  if (vote_log_ == nullptr) return Status::OK();
  KGOV_ASSERT(dead_letter_persisted_.size() == dead_letter_.size());
  const OnlineMetrics& metrics = OnlineMetrics::Get();
  for (size_t i = 0; i < dead_letter_.size(); ++i) {
    if (dead_letter_persisted_[i]) continue;
    KGOV_RETURN_IF_ERROR(vote_log_->AppendDeadLetter(dead_letter_[i]));
    dead_letter_persisted_[i] = 1;
    metrics.dead_letter_persisted->Increment();
  }
  return Status::OK();
}

std::vector<votes::Vote> OnlineKgOptimizer::PendingVoteList() const {
  std::vector<votes::Vote> pending;
  pending.reserve(buffer_.size());
  for (const PendingVote& entry : buffer_) pending.push_back(entry.vote);
  return pending;
}

Result<FlushReport> OnlineKgOptimizer::AddVote(votes::Vote vote) {
  KGOV_RETURN_IF_ERROR(options_status_);
  if (vote_log_ != nullptr) {
    // Durable-acknowledgement contract: the vote is logged before it is
    // buffered, so an append failure rejects the vote outright instead of
    // accepting something a crash would lose.
    KGOV_RETURN_IF_ERROR(vote_log_->AppendVote(vote));
  }
  buffer_.push_back(PendingVote{std::move(vote), 0});
  if (buffer_.size() >= options_.batch_size) {
    return Flush();
  }
  return FlushReport{};
}

Status OnlineKgOptimizer::IngestLogged(votes::Vote vote) {
  KGOV_RETURN_IF_ERROR(options_status_);
  // The streaming queue already appended this vote to the WAL under its
  // own mutex (Offer OK implies logged), so re-appending here would
  // duplicate it on replay. No auto-flush either: the pipeline owns the
  // micro-batch cadence.
  buffer_.push_back(PendingVote{std::move(vote), 0});
  OnlineMetrics::Get().pending_votes->Set(static_cast<double>(buffer_.size()));
  return Status::OK();
}

size_t OnlineKgOptimizer::RequeueOrDeadLetter(
    std::vector<PendingVote> failed) {
  const OnlineMetrics& metrics = OnlineMetrics::Get();
  size_t dead = 0;
  for (PendingVote& pending : failed) {
    ++pending.attempts;
    if (pending.attempts >= options_.max_vote_attempts) {
      ++dead;
      // Persist at dead-letter time (not just on shutdown): abandonment
      // is the last chance to record the vote before a crash drops it.
      uint8_t persisted = 0;
      if (vote_log_ != nullptr) {
        Status appended = vote_log_->AppendDeadLetter(pending.vote);
        if (appended.ok()) {
          persisted = 1;
          metrics.dead_letter_persisted->Increment();
        } else {
          KGOV_LOG(WARNING) << "dead-letter append failed (will retry on "
                            << "PersistDeadLetters): " << appended.ToString();
        }
      }
      dead_letter_.push_back(std::move(pending.vote));
      dead_letter_persisted_.push_back(persisted);
    } else {
      buffer_.push_back(std::move(pending));
    }
  }
  if (dead_letter_.size() > options_.dead_letter_capacity) {
    const size_t evicted =
        dead_letter_.size() - options_.dead_letter_capacity;
    metrics.dead_letter_evictions->Increment(evicted);
    dead_letter_.erase(dead_letter_.begin(),
                       dead_letter_.begin() + static_cast<ptrdiff_t>(evicted));
    dead_letter_persisted_.erase(
        dead_letter_persisted_.begin(),
        dead_letter_persisted_.begin() + static_cast<ptrdiff_t>(evicted));
  }
  dead_letter_count_.store(dead_letter_.size(), std::memory_order_release);
  return dead;
}

Result<FlushReport> OnlineKgOptimizer::Flush() {
  KGOV_RETURN_IF_ERROR(options_status_);
  FlushReport report;
  if (buffer_.empty()) return report;
  const OnlineMetrics& metrics = OnlineMetrics::Get();
  metrics.flushes->Increment();
  telemetry::ScopedSpan flush_span(metrics.flush_span);

  std::vector<PendingVote> batch = std::move(buffer_);
  buffer_.clear();
  std::vector<votes::Vote> votes;
  votes.reserve(batch.size());
  for (const PendingVote& pending : batch) votes.push_back(pending.vote);

  Timer timer;
  KgOptimizer optimizer(&graph_, options_.optimizer);
  Result<OptimizeReport> result =
      options_.strategy == FlushStrategy::kMultiVote
          ? optimizer.MultiVoteSolve(votes)
          : optimizer.SplitMergeSolve(votes);
  if (!result.ok()) {
    // The batch is unusable this round, but the votes are NOT dropped:
    // they are re-queued (bounded by max_vote_attempts) so a later flush -
    // possibly alongside fresh votes - can retry them.
    last_flush_status_ = result.status();
    metrics.flush_failures->Increment();
    metrics.dead_lettered->Increment(RequeueOrDeadLetter(std::move(batch)));
    metrics.pending_votes->Set(static_cast<double>(buffer_.size()));
    return result.status();
  }
  OptimizeReport& opt = result.value();

  // Injection point: corrupt the optimized graph before validation, so the
  // rollback path is exercised end-to-end in tests.
  if (FaultFires(FaultSite::kGraphCorruption) &&
      opt.optimized.NumEdges() > 0) {
    opt.optimized.SetWeight(0, std::numeric_limits<double>::quiet_NaN());
  }

  Status valid =
      ValidateGraphUpdate(graph_, opt.optimized, options_.validator);
  if (!valid.ok()) {
    // Rollback: the serving graph and snapshot stay exactly as they were;
    // the batch is re-queued for the next flush.
    ++rollback_count_;
    last_flush_status_ = valid;
    metrics.flush_failures->Increment();
    metrics.rollbacks->Increment();
    metrics.dead_lettered->Increment(RequeueOrDeadLetter(std::move(batch)));
    metrics.pending_votes->Set(static_cast<double>(buffer_.size()));
    return valid;
  }

  // Quarantined votes (failed clusters) are re-queued with their attempt
  // counters advanced; every other vote is settled by this flush and
  // counts as applied, including those the optimizer discarded before
  // solving (the judgment filter's rejections), which also count in
  // online.votes_rejected. An acknowledged vote is thus always applied,
  // pending or dead-lettered.
  std::unordered_map<uint32_t, std::vector<int>> attempts_by_id;
  for (const PendingVote& pending : batch) {
    attempts_by_id[pending.vote.id].push_back(pending.attempts);
  }
  std::vector<PendingVote> quarantined;
  quarantined.reserve(opt.quarantined_votes.size());
  for (votes::Vote& vote : opt.quarantined_votes) {
    int attempts = 0;
    auto it = attempts_by_id.find(vote.id);
    if (it != attempts_by_id.end() && !it->second.empty()) {
      attempts = it->second.back();
      it->second.pop_back();
    }
    quarantined.push_back(PendingVote{std::move(vote), attempts});
  }

  const size_t rejected = opt.votes_in - opt.votes_after_filter;
  const size_t applied = batch.size() - quarantined.size();
  // Publication guard: a batch that applied nothing (everything rejected
  // or quarantined), or whose solve reproduced every weight bit-for-bit,
  // publishes no epoch - cycling caches for an unchanged graph would only
  // burn hit rate.
  const bool publish = applied > 0 && AnyWeightChanged(graph_, opt.optimized);
  if (publish) {
    graph_ = std::move(opt.optimized);
    // Build the new snapshot fully before taking the epoch lock: readers
    // only ever wait on the pointer swap, never on the optimize or the CSR
    // construction.
    PublishEpoch(std::make_shared<graph::CsrSnapshot>(graph_));
  } else {
    metrics.epoch_skips->Increment();
  }
  report.epoch_published = publish;
  report.votes_flushed = applied;
  report.votes_quarantined = quarantined.size();
  report.constraints_total = opt.constraints_total;
  report.constraints_satisfied = opt.constraints_satisfied;
  report.solve_seconds = timer.ElapsedSeconds();
  total_applied_ += applied;
  report.votes_dead_lettered = RequeueOrDeadLetter(std::move(quarantined));
  last_flush_status_ = Status::OK();
  metrics.votes_applied->Increment(applied);
  metrics.votes_rejected->Increment(rejected);
  metrics.votes_quarantined->Increment(report.votes_quarantined);
  metrics.dead_lettered->Increment(report.votes_dead_lettered);
  metrics.pending_votes->Set(static_cast<double>(buffer_.size()));
  return report;
}

void OnlineKgOptimizer::PublishEpoch(
    std::shared_ptr<const graph::CsrSnapshot> snapshot) {
  OnlineMetrics::Get().epoch_swaps->Increment();
  MutexLock lock(serving_mu_);
  serving_ = ServingEpoch{std::move(snapshot), serving_.epoch + 1};
  // Published after serving_ so CurrentEpochNumber() == N implies a
  // subsequent CurrentEpoch() returns epoch >= N (readers synchronize on
  // either the mutex or this release store, never on neither).
  epoch_number_.store(serving_.epoch, std::memory_order_release);
}

}  // namespace kgov::core
