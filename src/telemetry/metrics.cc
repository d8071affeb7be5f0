#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/contracts.h"
#include "math/stats.h"

namespace kgov::telemetry {

namespace {

// Relaxed-CAS accumulate / min / max for atomic<double>: exactness of the
// *count* is what the concurrency tests pin down; the sum converges to the
// true total because every CAS retries until its delta lands.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

// JSON number formatting: shortest form that round-trips doubles well
// enough for operational snapshots; NaN/Inf (which should never appear)
// degrade to 0 so the document stays parseable.
std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

const std::vector<double>& DefaultLatencyBuckets() {
  // 1us .. ~30s, roughly x2.15 per step: fine resolution where serving
  // latencies live, coarse at the solver end.
  static const std::vector<double> kBuckets = [] {
    std::vector<double> b;
    double v = 1e-6;
    while (v < 30.0) {
      b.push_back(v);
      v *= 2.15;
    }
    b.push_back(30.0);
    return b;
  }();
  return kBuckets;
}

Status HistogramOptions::Validate() const {
  for (double bound : bucket_bounds) {
    if (!std::isfinite(bound)) {
      return Status::InvalidArgument(
          "HistogramOptions.bucket_bounds must be finite");
    }
  }
  if (reservoir_capacity < 1) {
    return Status::InvalidArgument(
        "HistogramOptions.reservoir_capacity must be >= 1");
  }
  return Status::OK();
}

namespace internal {

size_t NextStripe() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

}  // namespace internal

Histogram::Histogram(HistogramOptions options)
    : bounds_(std::move(options.bucket_bounds)),
      reservoir_capacity_(std::max<size_t>(1, options.reservoir_capacity)),
      reservoir_(std::make_unique<std::atomic<double>[]>(reservoir_capacity_)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  bucket_lines_ = bounds_.size() / BucketLine::kCounts + 1;
  buckets_ = std::make_unique<BucketLine[]>(kStripes * bucket_lines_);
  Reset();
}

uint64_t Histogram::ClaimSlot(Stripe& stripe) {
  const uint64_t claim = stripe.claim.fetch_add(1, std::memory_order_relaxed);
  const uint64_t used = claim & 0xffffffffu;
  if (used < kReservoirBlock) {
    return (claim >> 32) * kReservoirBlock + used;
  }
  // Block used up: claim the next one off the shared cursor and take its
  // first slot. A thread sharing this stripe that raced past the end
  // claims a block of its own; the loser's store abandons the rest of the
  // other block (those slots keep their previous samples).
  const uint64_t base =
      reservoir_cursor_.fetch_add(kReservoirBlock, std::memory_order_relaxed);
  stripe.claim.store(((base / kReservoirBlock) << 32) | 1,
                     std::memory_order_relaxed);
  return base;
}

void Histogram::Observe(double value) {
  // Bounds are inclusive upper edges ("le"): the first bound >= value is
  // the bucket; values above every bound land in the trailing overflow.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const size_t index = ThisThreadStripe();
  Stripe& stripe = stripes_[index];
  Bucket(index, bucket).fetch_add(1, std::memory_order_relaxed);
  stripe.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&stripe.sum, value);
  AtomicMin(&stripe.min, value);
  AtomicMax(&stripe.max, value);
  const uint64_t slot = ClaimSlot(stripe) % reservoir_capacity_;
  reservoir_[slot].store(value, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bucket_bounds = bounds_;
  snap.bucket_counts.assign(bounds_.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < kStripes; ++s) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      snap.bucket_counts[i] += Bucket(s, i).load(std::memory_order_relaxed);
    }
    const Stripe& stripe = stripes_[s];
    snap.count += stripe.count.load(std::memory_order_relaxed);
    snap.sum += stripe.sum.load(std::memory_order_relaxed);
    min = std::min(min, stripe.min.load(std::memory_order_relaxed));
    max = std::max(max, stripe.max.load(std::memory_order_relaxed));
  }
  snap.mean = snap.count == 0 ? 0.0
                              : snap.sum / static_cast<double>(snap.count);
  snap.min = snap.count == 0 ? 0.0 : min;
  snap.max = snap.count == 0 ? 0.0 : max;
  const size_t filled = static_cast<size_t>(std::min<uint64_t>(
      reservoir_cursor_.load(std::memory_order_relaxed), reservoir_capacity_));
  std::vector<double> samples;
  samples.reserve(filled);
  for (size_t i = 0; i < filled; ++i) {
    const double sample = reservoir_[i].load(std::memory_order_relaxed);
    if (!std::isnan(sample)) samples.push_back(sample);
  }
  if (!samples.empty()) {
    // One sort of one scratch copy serves all three percentiles.
    std::vector<double> ps =
        math::Percentiles(samples, {50.0, 95.0, 99.0});
    snap.p50 = ps[0];
    snap.p95 = ps[1];
    snap.p99 = ps[2];
  }
  return snap;
}

void Histogram::Reset() {
  for (size_t s = 0; s < kStripes; ++s) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      Bucket(s, i).store(0, std::memory_order_relaxed);
    }
    Stripe& stripe = stripes_[s];
    stripe.count.store(0, std::memory_order_relaxed);
    stripe.sum.store(0.0, std::memory_order_relaxed);
    stripe.min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    stripe.max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    stripe.claim.store(kReservoirBlock, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < reservoir_capacity_; ++i) {
    reservoir_[i].store(std::numeric_limits<double>::quiet_NaN(),
                        std::memory_order_relaxed);
  }
  reservoir_cursor_.store(0, std::memory_order_relaxed);
}

namespace {

// Mirrors soft-mode contract violations (common/contracts.h) into the
// registry, so a canary process that downgrades KGOV_ASSERT to counting
// still pages through its normal metrics pipeline. Lock-order violations
// (the runtime deadlock detector, common/lock_rank.h) additionally feed
// their own counter: deadlock potential pages on a separate signal.
void CountContractViolation(const char* /*file*/, int /*line*/,
                            const char* /*expression*/,
                            contracts::ViolationKind kind) {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("contracts.soft_violations");
  counter->Increment();
  if (kind == contracts::ViolationKind::kLockOrder) {
    static Counter* lock_order =
        MetricRegistry::Global().GetCounter("contracts.lock_order_violations");
    lock_order->Increment();
  }
}

}  // namespace

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = [] {
    contracts::SetViolationHandler(&CountContractViolation);
    return new MetricRegistry();
  }();
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const HistogramOptions& options) {
  // A bad bucket layout is a programmer error at the registration site;
  // release builds still construct (the constructor sorts and dedupes).
  // Checked before taking mu_: the soft-mode violation handler feeds this
  // registry and must not re-enter the lock.
  KGOV_DCHECK_OK(options.Validate());
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(options);
  return slot.get();
}

void MetricRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string MetricRegistry::SnapshotJson() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << counter->Value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << JsonNum(gauge->Value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap = histogram->Snapshot();
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\n"
        << "      \"count\": " << snap.count << ",\n"
        << "      \"sum\": " << JsonNum(snap.sum) << ",\n"
        << "      \"min\": " << JsonNum(snap.min) << ",\n"
        << "      \"max\": " << JsonNum(snap.max) << ",\n"
        << "      \"mean\": " << JsonNum(snap.mean) << ",\n"
        << "      \"p50\": " << JsonNum(snap.p50) << ",\n"
        << "      \"p95\": " << JsonNum(snap.p95) << ",\n"
        << "      \"p99\": " << JsonNum(snap.p99) << ",\n"
        << "      \"buckets\": [";
    std::string buckets;
    for (size_t i = 0; i < snap.bucket_counts.size(); ++i) {
      // Sparse: zero finite buckets are elided; the trailing +inf
      // overflow bucket always prints so parsers see the full range.
      const bool is_overflow = i + 1 == snap.bucket_counts.size();
      if (snap.bucket_counts[i] == 0 && !is_overflow) continue;
      if (!buckets.empty()) buckets += ",";
      buckets += "\n        {\"le\": ";
      buckets += i < snap.bucket_bounds.size()
                     ? JsonNum(snap.bucket_bounds[i])
                     : std::string("\"+inf\"");
      buckets += ", \"count\": " + std::to_string(snap.bucket_counts[i]) +
                 "}";
    }
    out << buckets << (buckets.empty() ? "" : "\n      ") << "]\n    }";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

Status MetricRegistry::WriteSnapshotJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot write telemetry snapshot to " + path);
  }
  out << SnapshotJson();
  if (!out.good()) {
    return Status::IoError("short write of telemetry snapshot to " + path);
  }
  return Status::OK();
}

}  // namespace kgov::telemetry
