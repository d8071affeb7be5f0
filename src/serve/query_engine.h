// serve::QueryEngine - the concurrent query-serving subsystem.
//
// Production deployments serve QA traffic continuously while the
// OnlineKgOptimizer folds vote batches into the graph. This engine is the
// read side of that loop:
//
//  * It pins a core::ServingEpoch (ref-counted CSR snapshot + epoch
//    number) and serves every query from that frozen view; an optimizer
//    flush never blocks or mutates an in-flight query.
//  * Both entry points first probe the result cache on the calling
//    thread (Probe): the pinned epoch number, the key encoded into a
//    reused thread-local buffer, one Get. A hit returns right there -
//    no admission slot, no thread pin, no pool task, and one allocation
//    (its copy of the answers).
//  * Every miss runs one serving body (ServeMiss): one seed, one
//    propagation on its thread's reusable workspace
//    (ppr::ThreadLocalWorkspace), one Put. Submit runs it on the calling
//    thread, with no pool hand-off; SubmitBatch runs it once per admitted
//    miss as a ThreadPool task (the pool's only job). A cache hit touches
//    no workspace. So there is at most one workspace per thread that has
//    propagated, freed when that thread exits, and steady-state serving
//    allocates nothing sized by the graph.
//  * Each pinned epoch carries one answer-indexed ppr::EipdEngine
//    (PinnedEpoch), so a miss builds nothing, and its propagation walks
//    only the edges into the candidates on the hop into level L. The
//    rankings are bitwise those of an engine without the set
//    (ppr/eipd_engine.h). The answer index depends only on the topology
//    and the candidates, and every epoch of one optimizer has the same
//    topology (core::ValidateGraphUpdate rejects node-count, edge-count
//    and endpoint drift on every flush), so Create builds it once,
//    O(|V| + |E|), and every epoch's engine shares it: pinning an epoch
//    costs O(1) (docs/serving.md).
//  * Results are memoized in a ShardedResultCache. A cache hit is bitwise
//    identical to the propagation it replaced. On an epoch swap the
//    engine advances the cache, which drops every entry (result_cache.h
//    says why nothing finer pays).
//  * Every admitted miss propagates. Concurrent misses on one key each
//    run their own pass and each Put the result; the values are bitwise
//    equal, so the later Put only refreshes the entry.
//  * An AdmissionController bounds the admitted-and-unfinished MISSES:
//    beyond capacity, a miss sheds immediately with kResourceExhausted
//    (never parks the caller). A hit is never admitted, so never shed.
//  * Before each query the engine probes
//    OnlineKgOptimizer::CurrentEpochNumber() (one acquire load) against
//    its own atomic copy of the pinned epoch number, and re-pins when the
//    optimizer has published a newer epoch, so fresh results appear
//    promptly without polling threads.
//  * Each thread that serves a miss keeps its own pin: one PinnedEpoch
//    (the epoch and its engine, one shared_ptr) in a thread_local slot,
//    keyed by the engine's process-unique id (never its address, which a
//    later engine may reuse). A miss reuses the slot while its epoch
//    equals the engine's pinned epoch number, so in steady state it takes
//    no lock and changes no reference count; only after a re-pin (or when
//    the thread last served another engine) does it copy the engine's pin
//    under the reader lock. A hit reads no graph and takes no pin, but it
//    releases a superseded one. Retention bound: at most one PinnedEpoch
//    per thread that has served a miss, from whichever engine it served
//    last. A superseded epoch stays alive until that thread's next query
//    or its exit, so an idle thread can hold one old snapshot and its
//    index (and a destroyed engine's last epoch) alive.
//  * Outcome counters are telemetry::Counter cells, like the registry's
//    serve.* mirrors; the engine's hit count is the cache's own. A cache
//    hit writes only its own thread's cache lines, apart from the cache
//    shard's reader-lock word, the entry's referenced bit (only when the
//    CLOCK hand cleared it since the last hit) and the span histogram's
//    shared reservoir cursor (one fetch_add per 64 samples per stripe).
//
// Telemetry (kgov_telemetry registry): serve.queries, serve.cache.hits /
// .misses / .evictions / .invalidations, serve.admission.shed, serve.errors,
// serve.epoch_refreshes, span.serve.query.seconds (latency from the
// probe to the served result; a SubmitBatch miss is timed from its
// task's enqueue, so it includes pool queue wait, for Submit there is
// none). Misses in flight are read from AdmissionStats().in_flight.
// serve.cache.misses counts the propagations a cache-on engine ran, one
// per miss; GetServeStats() keeps hits + misses + shed + errors ==
// queries. See docs/serving.md.

#ifndef KGOV_SERVE_QUERY_ENGINE_H_
#define KGOV_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/online_optimizer.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"
#include "ppr/ranking.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "telemetry/metrics.h"

namespace kgov::serve {

/// One pinned epoch and the engine that ranks on it, over epoch.view()
/// with the query engine's one answer index. A PinnedEpoch is shared
/// (shared_ptr), so a thread's pin copies it by reference.
struct PinnedEpoch {
  PinnedEpoch(core::ServingEpoch pinned, const ppr::EipdOptions& options,
              std::shared_ptr<const ppr::internal::TargetSlots> answer_index);

  core::ServingEpoch epoch;
  /// Reads epoch's snapshot, so it is only ever held beside it.
  ppr::EipdEngine ranker;
};

struct QueryEngineOptions {
  /// Propagation settings used for every query.
  ppr::EipdOptions eipd;
  /// Answers returned per query.
  size_t top_k = 10;
  /// Worker threads SubmitBatch fans its misses out over. Submit runs on
  /// the calling thread and never uses them.
  size_t num_threads = 4;
  /// Memoize per-seed rankings (sharded CLOCK). Disable to force every
  /// query through a fresh propagation (the cache-off baseline).
  bool enable_cache = true;
  /// Total cached seed rankings across all shards.
  size_t cache_capacity = 4096;
  /// Admission window (load-shedding) settings.
  AdmissionOptions admission;

  /// Checks every field range; returns InvalidArgument naming the first
  /// offending field. QueryEngine::Create fails fast with the result.
  Status Validate() const;
};

/// One served query result.
struct RankedAnswers {
  /// Top-k candidates by descending EIPD score (ties by node id).
  std::vector<ppr::ScoredAnswer> answers;
  /// Epoch the ranking was computed on.
  uint64_t epoch = 0;
  /// True when the ranking came out of the result cache.
  bool from_cache = false;
};

/// Concurrent query-serving engine over an OnlineKgOptimizer's published
/// epochs. Submit/SubmitBatch are safe to call from any number of threads;
/// the engine never blocks on an in-progress optimizer flush.
class QueryEngine {
 public:
  /// Engine-local outcome counters (mirrored into global telemetry).
  /// Every query resolves to exactly one of {hit, miss, shed, error}, so
  /// hits + misses + shed + errors == queries.
  struct ServeStats {
    uint64_t queries = 0;
    /// Served by the probe from the result cache. Read from the cache's
    /// own hit counter.
    uint64_t hits = 0;
    /// Ran their own propagation.
    uint64_t misses = 0;
    /// Always 0: no query is served off another's propagation. Kept only
    /// because kgbench's serve.coalesced_ratio reads it.
    uint64_t followers = 0;
    /// Shed by admission control with kResourceExhausted.
    uint64_t shed = 0;
    /// Failed with any other status (invalid seed, failed propagation).
    uint64_t errors = 0;
  };

  /// `source` and `candidates` are borrowed and must outlive the engine.
  /// `candidates` is the fixed answer-node universe ranked for every
  /// query (a QA system's answer documents) and the answer set of every
  /// epoch's engine, indexed here once. Fails fast on invalid options,
  /// null/empty inputs, or a candidate outside the source's graph. The
  /// source's graph must keep its topology (OnlineKgOptimizer::Flush
  /// changes weights only); serve a restored optimizer from a new engine.
  static StatusOr<std::unique_ptr<QueryEngine>> Create(
      const core::OnlineKgOptimizer* source,
      const std::vector<graph::NodeId>* candidates,
      QueryEngineOptions options);

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Serves one query on the calling thread and returns its ranking. A
  /// hit returns from the probe; a miss is admitted, then propagates on
  /// the thread's ppr::ThreadLocalWorkspace(), overwriting what an earlier
  /// workspace-less EipdEngine call left there. InvalidArgument when the
  /// seed does not fit the pinned epoch's view; ResourceExhausted
  /// (immediately) when the query misses and the admission window is
  /// full.
  StatusOr<RankedAnswers> Submit(const ppr::QuerySeed& seed);

  /// Serves a batch: every query is probed on the calling thread, the
  /// misses are admitted and enqueued up front as one pool task each
  /// (saturating the pool), then gathered in order. results[i]
  /// corresponds to seeds[i].
  std::vector<StatusOr<RankedAnswers>> SubmitBatch(
      const std::vector<ppr::QuerySeed>& seeds);

  /// The epoch queries are currently served from (pinned; may trail the
  /// optimizer's latest by at most one in-flight refresh). One acquire
  /// load; takes no lock.
  uint64_t PinnedEpochNumber() const {
    return pinned_epoch_.load(std::memory_order_acquire);
  }

  /// Cache counters since construction.
  ShardedResultCache::Stats CacheStats() const { return cache_.GetStats(); }

  /// Outcome counters since construction (see the identity on ServeStats).
  ServeStats GetServeStats() const;

  /// Admission window counters since construction.
  AdmissionController::Stats AdmissionStats() const {
    return admission_.GetStats();
  }

  const QueryEngineOptions& options() const { return options_; }

 private:
  QueryEngine(const core::OnlineKgOptimizer* source,
              const std::vector<graph::NodeId>* candidates,
              QueryEngineOptions options, core::ServingEpoch first,
              std::shared_ptr<const ppr::internal::TargetSlots> answer_index);

  /// Re-pins the serving epoch when the optimizer has published a newer
  /// one (cheap acquire-load probe; lock taken only on an actual swap),
  /// advancing (emptying) the cache BEFORE the new pin becomes visible.
  /// The new epoch's engine is made (O(1)) before the lock.
  void MaybeRefreshEpoch() KGOV_EXCLUDES(epoch_mu_);

  /// This thread's pin of the engine's current epoch (see the header
  /// comment). The reference stays valid until this thread's next call;
  /// ServeMiss never runs nested on one thread.
  const PinnedEpoch& ThreadPin() KGOV_EXCLUDES(epoch_mu_);

  /// The probe step of Submit and SubmitBatch, on the calling thread:
  /// true, with `*out` served and the span observed from `timer`, when
  /// the cache holds `seed` at the pinned epoch. A hit takes no admission
  /// slot and no thread pin.
  bool Probe(const ppr::QuerySeed& seed, const Timer& timer,
             RankedAnswers* out) KGOV_EXCLUDES(epoch_mu_);

  /// The serving body of every admitted miss: validation, ONE
  /// propagation through the pinned epoch's engine on this thread's
  /// workspace, then a Put into the cache.
  StatusOr<RankedAnswers> ServeMiss(const ppr::QuerySeed& seed)
      KGOV_EXCLUDES(epoch_mu_);

  /// Records a served miss's latency and releases its admission slot.
  void FinishMiss(double elapsed_seconds);

  const core::OnlineKgOptimizer* source_;
  const std::vector<graph::NodeId>* candidates_;
  QueryEngineOptions options_;

  /// Process-unique, never reused: keys the per-thread pins.
  const uint64_t id_;

  /// The candidates' answer index over the source's topology, shared by
  /// every epoch's engine. Never null.
  const std::shared_ptr<const ppr::internal::TargetSlots> answer_index_;

  /// Pinned epoch; a shared (reader-writer) mutex so re-pinning threads
  /// copy it without serializing on each other, while a refresh takes it
  /// exclusively.
  mutable SharedMutex epoch_mu_{KGOV_LOCK_RANK(kQueryEpochPin)};
  /// Never null.
  std::shared_ptr<const PinnedEpoch> pinned_ KGOV_GUARDED_BY(epoch_mu_);
  /// pinned_->epoch.epoch, stored (release) under the writer lock after the
  /// cache has advanced and pinned_ has been swapped; the lock-free fast
  /// paths read it (acquire).
  std::atomic<uint64_t> pinned_epoch_;

  ShardedResultCache cache_;
  AdmissionController admission_;

  telemetry::Counter queries_;
  telemetry::Counter misses_;
  telemetry::Counter errors_;

  /// Declared last: destroyed first, so workers drain before the state
  /// they touch goes away.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kgov::serve

#endif  // KGOV_SERVE_QUERY_ENGINE_H_
