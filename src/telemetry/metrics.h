// Runtime telemetry for the solve and serving pipelines: a process-wide
// MetricRegistry of named counters, gauges, and fixed-bucket latency
// histograms, plus RAII ScopedSpan stage timers built on common/timer.h.
//
// Design constraints (see docs/observability.md):
//  * Hot-path cost must be a handful of relaxed atomic ops on cache lines
//    the writing thread owns. Counters and histograms are striped: each
//    holds kStripes cache-line-aligned cells, a thread writes only the
//    cell of its stripe (ThisThreadStripe), and readers sum the cells. So
//    two serving threads recording the same metric never contend on one
//    line; nothing takes a lock.
//  * Metric objects are never removed once registered, so instrumentation
//    sites may cache the returned pointer in a function-local static and
//    skip the registry lookup forever after. Reset() zeroes values but
//    keeps every registration (and thus every cached pointer) valid.
//  * Snapshots are JSON, with histogram p50/p95/p99 computed from a
//    bounded reservoir of recent samples via math::Percentile.
//
// Naming scheme: dot-separated lowercase paths, `<subsystem>.<detail>`
// (e.g. "sgp.solver.iterations"). Stage spans are histograms named
// "span.<stage path>.seconds" and are what ScopedSpan records into.

#ifndef KGOV_TELEMETRY_METRICS_H_
#define KGOV_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace kgov::telemetry {

/// Cells per striped metric (Counter, Histogram). A compile-time
/// constant: threads beyond it share cells, which stays exact (every cell
/// write is an atomic read-modify-write) and only costs contention.
inline constexpr size_t kStripes = 16;
/// Alignment that keeps two cells off one cache line.
inline constexpr size_t kCacheLineBytes = 64;

namespace internal {
/// Hands out stripe indices round-robin, one per calling thread.
size_t NextStripe();
}  // namespace internal

/// The stripe this thread writes, in [0, kStripes): assigned on the
/// thread's first striped write and fixed for its lifetime.
inline size_t ThisThreadStripe() {
  thread_local const size_t stripe = internal::NextStripe();
  return stripe;
}

/// Monotonically increasing event count. Increment is one relaxed
/// fetch_add on the calling thread's own cell; Value() sums the cells.
/// Exact under any number of concurrent writers once they have stopped;
/// a Value() racing with them reads some count between the increments
/// completed before it started and those completed when it returns.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    cells_[ThisThreadStripe()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// Last-write-wins instantaneous value (queue depths, ratios). A writer
/// publishes a value it owns; there is no read-modify-write. A count
/// that many threads move up and down (an in-flight count) is not a
/// gauge: keep it in its own atomic word, or as two monotonic Counters
/// whose difference is read at report time.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  double Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout and reservoir size for a Histogram. Bounds are upper
/// edges in ascending order; an implicit +inf bucket catches the rest.
struct HistogramOptions {
  std::vector<double> bucket_bounds;
  /// Samples retained for percentile estimation. Once full the reservoir
  /// wraps (a ring of the most recent samples).
  size_t reservoir_capacity = 4096;

  /// Checks every field (finite bounds, non-zero reservoir); returns
  /// InvalidArgument naming the first offending field. Checked (debug
  /// builds) when a histogram is first registered under a name.
  Status Validate() const;
};

/// 26 exponential latency buckets from 1us to ~30s, the default for
/// span/latency histograms.
const std::vector<double>& DefaultLatencyBuckets();

/// Everything a histogram knows at one instant.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> bucket_bounds;
  std::vector<uint64_t> bucket_counts;  // one extra trailing +inf bucket
};

/// Fixed-bucket histogram with a bounded percentile reservoir. Observe()
/// is one bucket search plus relaxed atomics on the calling thread's
/// stripe: its bucket, count, sum, min and max, and a slot claimed from
/// the stripe's reservoir block. It takes no lock. The reservoir is one
/// ring shared by all stripes; a stripe claims kReservoirBlock slots at a
/// time with one shared fetch_add, so a single thread fills the ring in
/// the same slot order as an unstriped histogram would.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options);

  void Observe(double value);

  /// Count of observations so far (exact once writers have stopped).
  uint64_t Count() const;

  /// Percentiles come from the reservoir slots written so far. Under
  /// concurrent Observe a claimed slot may still hold its previous
  /// sample; a slot never written holds NaN and is skipped (so NaN
  /// observations count but never reach the percentiles).
  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  /// Reservoir slots a stripe claims per shared cursor update.
  static constexpr uint64_t kReservoirBlock = 64;

  /// One stripe's totals, on a cache line of its own.
  struct alignas(kCacheLineBytes) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    // +/-inf sentinels; Snapshot() reports 0 for an empty histogram.
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    /// The reservoir block this stripe fills, packed as
    /// (block number << 32) | slots of it used. A used count of
    /// kReservoirBlock or more means the stripe must claim a new block.
    std::atomic<uint64_t> claim{0};
  };
  /// One cache line of bucket counts.
  struct alignas(kCacheLineBytes) BucketLine {
    static constexpr size_t kCounts = kCacheLineBytes / sizeof(uint64_t);
    std::atomic<uint64_t> counts[kCounts];
  };

  std::atomic<uint64_t>& Bucket(size_t stripe, size_t bucket) const {
    return buckets_[stripe * bucket_lines_ + bucket / BucketLine::kCounts]
        .counts[bucket % BucketLine::kCounts];
  }

  /// The reservoir slot for `stripe`'s next sample.
  uint64_t ClaimSlot(Stripe& stripe);

  std::vector<double> bounds_;
  /// BucketLines per stripe, covering bounds_.size() + 1 buckets.
  size_t bucket_lines_;
  std::unique_ptr<BucketLine[]> buckets_;  // kStripes * bucket_lines_
  std::array<Stripe, kStripes> stripes_;

  /// Ring of recent samples: a stripe's block covers slots [b, b + block)
  /// for the b its claim took off reservoir_cursor_, each taken modulo
  /// reservoir_capacity_.
  size_t reservoir_capacity_;  // immutable after construction
  std::unique_ptr<std::atomic<double>[]> reservoir_;
  std::atomic<uint64_t> reservoir_cursor_{0};
};

/// Process-wide metric registry. GetX() registers on first use and
/// returns a pointer that stays valid for the process lifetime; callers
/// on hot paths should cache it (function-local static). All methods are
/// thread-safe.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name) KGOV_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) KGOV_EXCLUDES(mu_);
  /// `options` applies only on first registration of `name`.
  Histogram* GetHistogram(const std::string& name,
                          const HistogramOptions& options = {
                              DefaultLatencyBuckets()}) KGOV_EXCLUDES(mu_);

  /// Zeroes every metric's value. Registrations (and cached pointers)
  /// survive; tests and benchmarks call this between scenarios.
  void Reset() KGOV_EXCLUDES(mu_);

  /// The full registry as a JSON document (metrics sorted by name, so
  /// snapshots are diffable).
  std::string SnapshotJson() const KGOV_EXCLUDES(mu_);

  /// Writes SnapshotJson() to `path`.
  Status WriteSnapshotJson(const std::string& path) const;

 private:
  mutable Mutex mu_{KGOV_LOCK_RANK(kTelemetryRegistry)};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      KGOV_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ KGOV_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      KGOV_GUARDED_BY(mu_);
};

/// RAII stage timer: records the scope's wall time (common/timer.h
/// steady-clock Timer) into a histogram on destruction. Use the
/// name-based constructor for one-off stages, or hand it a cached
/// Histogram* on hot paths.
class ScopedSpan {
 public:
  /// Records into "span.<name>.seconds" in the global registry.
  explicit ScopedSpan(const std::string& name)
      : histogram_(MetricRegistry::Global().GetHistogram(
            "span." + name + ".seconds")) {}

  explicit ScopedSpan(Histogram* histogram) : histogram_(histogram) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (histogram_ != nullptr) histogram_->Observe(timer_.ElapsedSeconds());
  }

  /// Drops the measurement (the span records nothing on destruction).
  void Cancel() { histogram_ = nullptr; }

  /// Seconds since the span opened.
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  Timer timer_;
  Histogram* histogram_;
};

}  // namespace kgov::telemetry

#endif  // KGOV_TELEMETRY_METRICS_H_
