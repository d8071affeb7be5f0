#include "serve/query_engine.h"

#include <algorithm>
#include <future>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/contracts.h"
#include "common/timer.h"
#include "serve/validate.h"
#include "telemetry/metrics.h"

namespace kgov::serve {

namespace {

// Result-cache shard count: one reader-writer lock each.
constexpr size_t kCacheShards = 8;

// An epoch swap whose changed clusters exceed this fraction of the
// partition flushes the whole cache: a near-global change makes the
// selective sweep pointless bookkeeping.
constexpr double kFullFlushFraction = 0.5;

// Serving-subsystem telemetry; pointers resolved once.
struct ServeMetrics {
  telemetry::Counter* queries;
  telemetry::Counter* cache_hits;
  telemetry::Counter* cache_misses;
  telemetry::Counter* cache_evictions;
  telemetry::Counter* cache_invalidations;
  telemetry::Counter* errors;
  telemetry::Counter* batch_groups;
  telemetry::Counter* epoch_refreshes;
  telemetry::Counter* invalidation_selective;
  telemetry::Counter* invalidation_full;
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
                          reg.GetCounter("serve.batch.groups"),
                          reg.GetCounter("serve.epoch_refreshes"),
                          reg.GetCounter("stream.invalidation.selective"),
                          reg.GetCounter("stream.invalidation.full"),
                          reg.GetHistogram("span.serve.query.seconds")};
    }();
    return m;
  }
};

// Engine ids start at 1, so an unused ThreadPinSlot (id 0) matches none.
std::atomic<uint64_t> next_engine_id{1};

// The epoch this thread serves from, and the engine it was pinned from.
struct ThreadPinSlot {
  uint64_t engine_id = 0;
  core::ServingEpoch epoch;
};
thread_local ThreadPinSlot this_thread_pin;

}  // namespace

std::vector<uint32_t> DependencySet(const ppr::PropagationWorkspace& lane,
                                    const stream::GraphPartition& partition) {
  const bool capped = lane.expanded >= lane.phi.size();
  std::vector<char> read(partition.num_clusters(), capped ? 1 : 0);
  if (!capped) {
    for (size_t i = 0; i < lane.expanded; ++i) {
      read[partition.ClusterOf(lane.touched[i])] = 1;
    }
  }
  std::vector<uint32_t> clusters;
  for (uint32_t cluster = 0; cluster < read.size(); ++cluster) {
    if (read[cluster] != 0) clusters.push_back(cluster);
  }
  return clusters;
}

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
  return std::unique_ptr<QueryEngine>(
      new QueryEngine(source, candidates, std::move(options)));
}

QueryEngine::QueryEngine(const core::OnlineKgOptimizer* source,
                         const std::vector<graph::NodeId>* candidates,
                         QueryEngineOptions options)
    : source_(source),
      candidates_(candidates),
      options_(std::move(options)),
      partition_(source->partition()),
      id_(next_engine_id.fetch_add(1, std::memory_order_relaxed)),
      pinned_(source->CurrentEpoch()),
      pinned_epoch_(pinned_.epoch),
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
  // Pin the fresh epoch outside the exclusive section (CurrentEpoch takes
  // the optimizer's own lock), then swap under ours.
  core::ServingEpoch fresh = source_->CurrentEpoch();
  size_t dropped = 0;
  bool full = true;
  {
    WriterMutexLock lock(epoch_mu_);
    if (fresh.epoch <= pinned_.epoch) return;  // raced with another refresh
    if (options_.enable_cache) {
      // Selective invalidation: union the published deltas spanning
      // (pinned, fresh]. Unknowable (history gap, restored epoch, feature
      // off) or near-global changes fall back to a wholesale flush.
      std::vector<uint32_t> changed;
      if (options_.selective_invalidation &&
          source_->CollectChangedClusters(pinned_.epoch, fresh.epoch,
                                          &changed)) {
        const size_t clusters = partition_->num_clusters();
        full = clusters == 0 ||
               static_cast<double>(changed.size()) >
                   kFullFlushFraction * static_cast<double>(clusters);
      }
      // Advance the cache BEFORE the new pin becomes visible: a reader
      // that sees fresh.epoch can then never hit an entry the delta
      // invalidated (see the lock-order proof in result_cache.h).
      dropped = cache_.AdvanceEpoch(fresh.epoch, changed, full);
    }
    pinned_ = std::move(fresh);
    // Published last: a thread that reads this number has the advanced
    // cache and the new pin visible (see result_cache.h).
    pinned_epoch_.store(pinned_.epoch, std::memory_order_release);
  }
  const ServeMetrics& metrics = ServeMetrics::Get();
  metrics.epoch_refreshes->Increment();
  if (options_.enable_cache) {
    if (full) {
      metrics.invalidation_full->Increment();
    } else {
      metrics.invalidation_selective->Increment();
    }
    metrics.cache_invalidations->Increment(dropped);
  }
}

const core::ServingEpoch& QueryEngine::ThreadPin() {
  ThreadPinSlot& pin = this_thread_pin;
  if (pin.engine_id != id_ ||
      pin.epoch.epoch != pinned_epoch_.load(std::memory_order_acquire)) {
    core::ServingEpoch fresh;
    {
      ReaderMutexLock lock(epoch_mu_);
      fresh = pinned_;
    }
    // The superseded epoch is released here, outside the lock.
    pin.epoch = std::move(fresh);
    pin.engine_id = id_;
  }
  return pin.epoch;
}

QueryEngine::GroupResult QueryEngine::ServeGroup(
    std::span<const ppr::QuerySeed> seeds, std::span<const size_t> indices) {
  MaybeRefreshEpoch();
  const core::ServingEpoch& epoch = ThreadPin();
  // Debug builds re-check the pinned epoch's structural contract on every
  // group (compiled out under NDEBUG; see serve/validate.h).
  KGOV_DCHECK_OK(ValidateEpochPin(epoch));

  const ServeMetrics& metrics = ServeMetrics::Get();
  ppr::EipdEngine engine(epoch.view(), options_.eipd);

  GroupResult out;
  out.reserve(indices.size());
  auto fail = [&](size_t index, Status status) {
    errors_.Increment();
    metrics.errors->Increment();
    out.emplace_back(index, std::move(status));
  };

  // An invalid seed is an ERROR outcome and fails alone; every valid seed
  // gets a lane. The caller already probed the cache (Probe).
  std::vector<size_t> lane_index;
  std::vector<ppr::QuerySeed> roots;
  lane_index.reserve(indices.size());
  roots.reserve(indices.size());
  for (size_t index : indices) {
    Status valid = engine.ValidateSeed(seeds[index]);
    if (!valid.ok()) {
      fail(index, std::move(valid));
      continue;
    }
    lane_index.push_back(index);
    roots.push_back(seeds[index]);
  }
  if (roots.empty()) return out;

  // ONE propagation pass on this thread's lanes; the dependency sets are
  // read off them below.
  if (indices.size() > 1) metrics.batch_groups->Increment();
  std::vector<ppr::PropagationWorkspace>& lanes = ppr::ThreadLocalLanes();
  StatusOr<std::vector<std::vector<ppr::ScoredAnswer>>> ranked =
      engine.RankMulti(roots, *candidates_, options_.top_k, &lanes);
  std::string key;
  for (size_t b = 0; b < lane_index.size(); ++b) {
    if (!ranked.ok()) {
      fail(lane_index[b], ranked.status());
      continue;
    }
    RankedAnswers result;
    result.answers = std::move((*ranked)[b]);
    result.epoch = epoch.epoch;
    if (options_.enable_cache) {
      EncodeCacheKey(roots[b], &key);
      if (cache_.Put(key, result.answers, DependencySet(lanes[b], *partition_),
                     epoch.epoch)) {
        metrics.cache_evictions->Increment();
      }
      metrics.cache_misses->Increment();
    }
    misses_.Increment();
    out.emplace_back(lane_index[b], std::move(result));
  }
  return out;
}

std::vector<std::vector<size_t>> QueryEngine::GroupForBatch(
    const std::vector<ppr::QuerySeed>& seeds,
    const std::vector<size_t>& admitted) const {
  std::vector<std::vector<size_t>> groups;
  if (admitted.size() <= 1) {
    groups.reserve(admitted.size());
    for (size_t index : admitted) groups.push_back({index});
    return groups;
  }
  // Bucket by the cluster of the seed's first link node: queries rooted
  // in the same cluster start their frontiers in the same region, so one
  // pass walks shared structure. Seeds with no links form groups of one
  // (they have no root cluster).
  std::unordered_map<uint32_t, std::vector<size_t>> buckets;
  std::vector<uint32_t> order;  // deterministic group order
  for (size_t index : admitted) {
    const ppr::QuerySeed& seed = seeds[index];
    if (seed.links.empty()) {
      groups.push_back({index});
      continue;
    }
    const uint32_t cluster = partition_->ClusterOf(seed.links.front().first);
    auto [it, inserted] = buckets.try_emplace(cluster);
    if (inserted) order.push_back(cluster);
    it->second.push_back(index);
  }
  for (uint32_t cluster : order) {
    const std::vector<size_t>& members = buckets[cluster];
    for (size_t begin = 0; begin < members.size();
         begin += kMaxGroupRoots) {
      const size_t end =
          std::min(members.size(), begin + kMaxGroupRoots);
      groups.emplace_back(members.begin() + static_cast<ptrdiff_t>(begin),
                          members.begin() + static_cast<ptrdiff_t>(end));
    }
  }
  return groups;
}

void QueryEngine::FinishGroup(const GroupResult& served,
                              double elapsed_seconds) {
  // Observed at completion, so batch gather order cannot inflate it. Each
  // admitted query releases its admission slot here.
  const ServeMetrics& metrics = ServeMetrics::Get();
  for (size_t i = 0; i < served.size(); ++i) {
    metrics.query_span->Observe(elapsed_seconds);
    admission_.Finish();
  }
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
  ThreadPinSlot& pin = this_thread_pin;
  if (pin.engine_id != 0 &&
      (pin.engine_id != id_ || pin.epoch.epoch != epoch)) {
    pin = ThreadPinSlot{};
  }
  // Encoded into this thread's reused buffer: only a Put copies a key.
  thread_local std::string key;
  EncodeCacheKey(seed, &key);
  if (!cache_.Get(key, epoch, &out->answers)) return false;
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
  const size_t index = 0;
  GroupResult served = ServeGroup({&seed, 1}, {&index, 1});
  FinishGroup(served, timer.ElapsedSeconds());
  return std::move(served.front().second);
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

  // Fan the groups out over the pool; their latency includes queue wait.
  std::vector<std::vector<size_t>> groups = GroupForBatch(seeds, admitted);
  std::vector<std::future<GroupResult>> futures;
  futures.reserve(groups.size());
  for (std::vector<size_t>& group : groups) {
    Timer enqueue_timer;
    futures.push_back(pool_->Submit(
        [this, &seeds, group = std::move(group), enqueue_timer]() {
          GroupResult served = ServeGroup(seeds, group);
          FinishGroup(served, enqueue_timer.ElapsedSeconds());
          return served;
        }));
  }
  for (std::future<GroupResult>& future : futures) {
    for (auto& [index, result] : future.get()) {
      slots[index].emplace(std::move(result));
    }
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
