#include "serve/query_engine.h"

#include <future>
#include <optional>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/timer.h"
#include "serve/validate.h"
#include "telemetry/metrics.h"

namespace kgov::serve {

namespace {

// Result-cache shard count: one reader-writer lock each.
constexpr size_t kCacheShards = 8;

// Serving-subsystem telemetry; pointers resolved once.
struct ServeMetrics {
  telemetry::Counter* queries;
  telemetry::Counter* cache_hits;
  telemetry::Counter* cache_misses;
  telemetry::Counter* cache_evictions;
  telemetry::Counter* cache_invalidations;
  telemetry::Counter* errors;
  telemetry::Counter* epoch_refreshes;
  telemetry::Histogram* query_span;

  static const ServeMetrics& Get() {
    static const ServeMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return ServeMetrics{reg.GetCounter("serve.queries"),
                          reg.GetCounter("serve.cache.hits"),
                          reg.GetCounter("serve.cache.misses"),
                          reg.GetCounter("serve.cache.evictions"),
                          reg.GetCounter("serve.cache.invalidations"),
                          reg.GetCounter("serve.errors"),
                          reg.GetCounter("serve.epoch_refreshes"),
                          reg.GetHistogram("span.serve.query.seconds")};
    }();
    return m;
  }
};

// Engine ids start at 1, so an unused ThreadPinSlot (id 0) matches none.
std::atomic<uint64_t> next_engine_id{1};

// The epoch this thread serves from, and the engine it was pinned from;
// `pin` is set whenever `engine_id` is.
struct ThreadPinSlot {
  uint64_t engine_id = 0;
  std::shared_ptr<const PinnedEpoch> pin;
};
thread_local ThreadPinSlot this_thread_pin;

// This thread's cache-key buffer (Probe, ServeMiss): only a Put copies a
// key.
thread_local std::string this_thread_key;

}  // namespace

PinnedEpoch::PinnedEpoch(
    core::ServingEpoch pinned, const ppr::EipdOptions& options,
    std::shared_ptr<const ppr::internal::TargetSlots> answer_index)
    : epoch(std::move(pinned)),
      ranker(epoch.view(), options, std::move(answer_index)) {}

Status QueryEngineOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(eipd.Validate());
  if (top_k < 1) {
    return Status::InvalidArgument("QueryEngineOptions.top_k must be >= 1");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument(
        "QueryEngineOptions.num_threads must be >= 1");
  }
  if (cache_capacity < 1) {
    return Status::InvalidArgument(
        "QueryEngineOptions.cache_capacity must be >= 1");
  }
  KGOV_RETURN_IF_ERROR(admission.Validate());
  return Status::OK();
}

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const core::OnlineKgOptimizer* source,
    const std::vector<graph::NodeId>* candidates,
    QueryEngineOptions options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  if (source == nullptr) {
    return Status::InvalidArgument("QueryEngine requires a non-null source");
  }
  if (candidates == nullptr || candidates->empty()) {
    return Status::InvalidArgument(
        "QueryEngine requires a non-empty candidate set");
  }
  // Every epoch has the same topology (a flush changes weights only), so
  // the current one decides for all, and its answer index serves all.
  core::ServingEpoch current = source->CurrentEpoch();
  for (size_t i = 0; i < candidates->size(); ++i) {
    if (!current.view().IsValidNode((*candidates)[i])) {
      return Status::InvalidArgument(
          "candidates[" + std::to_string(i) + "] = " +
          std::to_string((*candidates)[i]) + " is outside the graph's " +
          std::to_string(current.view().NumNodes()) + " nodes");
    }
  }
  auto answer_index = std::make_shared<const ppr::internal::TargetSlots>(
      ppr::internal::BuildTargetSlots(current.view(), *candidates));
  return std::unique_ptr<QueryEngine>(
      new QueryEngine(source, candidates, std::move(options),
                      std::move(current), std::move(answer_index)));
}

QueryEngine::QueryEngine(
    const core::OnlineKgOptimizer* source,
    const std::vector<graph::NodeId>* candidates, QueryEngineOptions options,
    core::ServingEpoch first,
    std::shared_ptr<const ppr::internal::TargetSlots> answer_index)
    : source_(source),
      candidates_(candidates),
      options_(std::move(options)),
      id_(next_engine_id.fetch_add(1, std::memory_order_relaxed)),
      answer_index_(std::move(answer_index)),
      pinned_(std::make_shared<const PinnedEpoch>(std::move(first),
                                                  options_.eipd,
                                                  answer_index_)),
      pinned_epoch_(pinned_->epoch.epoch),
      cache_(options_.cache_capacity, kCacheShards),
      admission_(options_.admission),
      pool_(std::make_unique<ThreadPool>(options_.num_threads)) {}

QueryEngine::~QueryEngine() = default;

QueryEngine::ServeStats QueryEngine::GetServeStats() const {
  ServeStats stats;
  stats.queries = queries_.Value();
  stats.hits = cache_.GetStats().hits;
  stats.misses = misses_.Value();
  stats.shed = admission_.GetStats().shed;
  stats.errors = errors_.Value();
  return stats;
}

void QueryEngine::MaybeRefreshEpoch() {
  const uint64_t latest = source_->CurrentEpochNumber();
  if (pinned_epoch_.load(std::memory_order_acquire) >= latest) return;
  // Pin the fresh epoch and make its engine (over the shared answer
  // index) outside the exclusive section (CurrentEpoch takes the
  // optimizer's own lock), then swap under ours.
  auto fresh = std::make_shared<const PinnedEpoch>(
      source_->CurrentEpoch(), options_.eipd, answer_index_);
  const uint64_t fresh_epoch = fresh->epoch.epoch;
  size_t dropped = 0;
  {
    WriterMutexLock lock(epoch_mu_);
    // Raced with another refresh.
    if (fresh_epoch <= pinned_->epoch.epoch) return;
    // Advance the cache BEFORE the new pin becomes visible: a reader that
    // sees fresh_epoch can then never hit an entry computed before it
    // (see the happens-before argument in result_cache.h).
    if (options_.enable_cache) dropped = cache_.AdvanceEpoch(fresh_epoch);
    // The superseded pin is released with `fresh`, after the lock.
    pinned_.swap(fresh);
    // Published last: a thread that reads this number has the advanced
    // cache and the new pin visible (see result_cache.h).
    pinned_epoch_.store(fresh_epoch, std::memory_order_release);
  }
  const ServeMetrics& metrics = ServeMetrics::Get();
  metrics.epoch_refreshes->Increment();
  if (options_.enable_cache) metrics.cache_invalidations->Increment(dropped);
}

const PinnedEpoch& QueryEngine::ThreadPin() {
  ThreadPinSlot& slot = this_thread_pin;
  if (slot.engine_id != id_ ||
      slot.pin->epoch.epoch != pinned_epoch_.load(std::memory_order_acquire)) {
    std::shared_ptr<const PinnedEpoch> fresh;
    {
      ReaderMutexLock lock(epoch_mu_);
      fresh = pinned_;
    }
    // The superseded pin is released here, outside the lock.
    slot.pin = std::move(fresh);
    slot.engine_id = id_;
  }
  return *slot.pin;
}

StatusOr<RankedAnswers> QueryEngine::ServeMiss(const ppr::QuerySeed& seed) {
  MaybeRefreshEpoch();
  const PinnedEpoch& pinned = ThreadPin();
  const core::ServingEpoch& epoch = pinned.epoch;
  // Debug builds re-check the pinned epoch's structural contract on every
  // miss (compiled out under NDEBUG; see serve/validate.h).
  KGOV_DCHECK_OK(ValidateEpochPin(epoch));

  const ServeMetrics& metrics = ServeMetrics::Get();
  // An invalid seed is an ERROR outcome. The caller already probed the
  // cache (Probe).
  StatusOr<std::vector<ppr::ScoredAnswer>> ranked =
      pinned.ranker.Rank(seed, *candidates_, options_.top_k);
  if (!ranked.ok()) {
    errors_.Increment();
    metrics.errors->Increment();
    return ranked.status();
  }
  RankedAnswers result;
  result.answers = std::move(*ranked);
  result.epoch = epoch.epoch;
  if (options_.enable_cache) {
    EncodeCacheKey(seed, &this_thread_key);
    if (cache_.Put(this_thread_key, result.answers, epoch.epoch)) {
      metrics.cache_evictions->Increment();
    }
    metrics.cache_misses->Increment();
  }
  misses_.Increment();
  return result;
}

void QueryEngine::FinishMiss(double elapsed_seconds) {
  // Observed at completion, so batch gather order cannot inflate it.
  ServeMetrics::Get().query_span->Observe(elapsed_seconds);
  admission_.Finish();
}

bool QueryEngine::Probe(const ppr::QuerySeed& seed, const Timer& timer,
                        RankedAnswers* out) {
  if (!options_.enable_cache) return false;
  MaybeRefreshEpoch();
  // The pinned epoch NUMBER is all a hit needs: it reads no graph, so it
  // takes no thread pin. Reaching the number through this acquire load is
  // what orders the cache advance before the Get (result_cache.h).
  const uint64_t epoch = pinned_epoch_.load(std::memory_order_acquire);
  // It does release a pin the engine has moved past (or another engine's),
  // so a thread that keeps hitting holds no superseded snapshot alive.
  ThreadPinSlot& slot = this_thread_pin;
  if (slot.engine_id != 0 &&
      (slot.engine_id != id_ || slot.pin->epoch.epoch != epoch)) {
    slot = ThreadPinSlot{};
  }
  // Encoded into this thread's reused buffer: only a Put copies a key.
  EncodeCacheKey(seed, &this_thread_key);
  if (!cache_.Get(this_thread_key, epoch, &out->answers)) return false;
  out->epoch = epoch;
  out->from_cache = true;
  const ServeMetrics& metrics = ServeMetrics::Get();
  metrics.cache_hits->Increment();
  metrics.query_span->Observe(timer.ElapsedSeconds());
  return true;
}

StatusOr<RankedAnswers> QueryEngine::Submit(const ppr::QuerySeed& seed) {
  ServeMetrics::Get().queries->Increment();
  queries_.Increment();
  Timer timer;
  RankedAnswers hit;
  if (Probe(seed, timer, &hit)) return hit;
  // Only a miss takes a slot. A shed query never took one, so it has no
  // Finish.
  KGOV_RETURN_IF_ERROR(admission_.TryAdmit());
  StatusOr<RankedAnswers> served = ServeMiss(seed);
  FinishMiss(timer.ElapsedSeconds());
  return served;
}

std::vector<StatusOr<RankedAnswers>> QueryEngine::SubmitBatch(
    const std::vector<ppr::QuerySeed>& seeds) {
  const size_t n = seeds.size();
  ServeMetrics::Get().queries->Increment(n);
  queries_.Increment(n);

  std::vector<std::optional<StatusOr<RankedAnswers>>> slots(n);

  // Probe, then admission: a hit is answered here and takes no slot; a
  // miss takes one window slot. A shed query is answered immediately with
  // kResourceExhausted and never enqueued (the controller counts it; its
  // slot was never taken, so no Finish).
  std::vector<size_t> admitted;
  admitted.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Timer timer;
    RankedAnswers hit;
    if (Probe(seeds[i], timer, &hit)) {
      slots[i].emplace(std::move(hit));
      continue;
    }
    Status admit = admission_.TryAdmit();
    if (admit.ok()) {
      admitted.push_back(i);
    } else {
      slots[i].emplace(std::move(admit));
    }
  }

  // One pool task per miss; its latency includes queue wait.
  std::vector<std::future<StatusOr<RankedAnswers>>> futures;
  futures.reserve(admitted.size());
  for (size_t index : admitted) {
    Timer enqueue_timer;
    futures.push_back(
        pool_->Submit([this, &seed = seeds[index], enqueue_timer]() {
          StatusOr<RankedAnswers> served = ServeMiss(seed);
          FinishMiss(enqueue_timer.ElapsedSeconds());
          return served;
        }));
  }
  for (size_t i = 0; i < admitted.size(); ++i) {
    slots[admitted[i]].emplace(futures[i].get());
  }

  std::vector<StatusOr<RankedAnswers>> results;
  results.reserve(n);
  for (std::optional<StatusOr<RankedAnswers>>& slot : slots) {
    KGOV_CHECK(slot.has_value());
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace kgov::serve
