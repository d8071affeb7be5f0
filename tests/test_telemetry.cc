#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "math/monomial.h"
#include "math/sgp_problem.h"
#include "math/sgp_solver.h"
#include "math/signomial.h"
#include "math/stats.h"

namespace kgov::telemetry {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

// More writers than stripes, so some cells are shared, while a reader
// sums the cells and snapshots a histogram fed by the same writers. Every
// read lies between what had completed and what was attempted, reads
// never go backwards, and the totals are exact once the writers stop.
TEST(CounterTest, StripedCellsSumExactlyWhileReadersRace) {
  Counter counter;
  Histogram histogram(HistogramOptions{{1.0}});
  constexpr size_t kThreads = kStripes + 3;
  constexpr uint64_t kPerThread = 20000;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  std::atomic<size_t> running{kThreads};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
        histogram.Observe(0.5);
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last_value = 0;
  uint64_t last_count = 0;
  int reads = 0;
  while (running.load() > 0 || reads == 0) {
    const uint64_t value = counter.Value();
    const HistogramSnapshot snap = histogram.Snapshot();
    ++reads;
    EXPECT_GE(value, last_value);
    EXPECT_LE(value, kTotal);
    EXPECT_GE(snap.count, last_count);
    EXPECT_LE(snap.count, kTotal);
    last_value = value;
    last_count = snap.count;
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(counter.Value(), kTotal);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kTotal);
  EXPECT_EQ(snap.bucket_counts.front(), kTotal);
  EXPECT_EQ(histogram.Count(), kTotal);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.Value(), -1.25);
  g.Reset();
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZeros) {
  Histogram h(HistogramOptions{{1.0, 2.0}});
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.mean, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
}

TEST(HistogramTest, BucketAssignmentUsesUpperEdges) {
  Histogram h(HistogramOptions{{1.0, 2.0, 4.0}});
  // Bucket layout: (-inf,1], (1,2], (2,4], (4,+inf).
  h.Observe(0.5);
  h.Observe(1.0);  // boundary lands in the <=1 bucket
  h.Observe(1.5);
  h.Observe(3.0);
  h.Observe(100.0);
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.sum, 106.0);
}

TEST(HistogramTest, PercentilesFromReservoir) {
  Histogram h(HistogramOptions{{1000.0}});
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_NEAR(snap.p50, 50.5, 1.0);
  EXPECT_NEAR(snap.p95, 95.0, 1.5);
  EXPECT_NEAR(snap.p99, 99.0, 1.5);
}

TEST(HistogramTest, ReservoirWrapsKeepingRecentSamples) {
  HistogramOptions options;
  options.bucket_bounds = {1e9};
  options.reservoir_capacity = 8;
  Histogram h(options);
  // 100 old samples at 1.0, then 8 fresh ones at 5.0: the ring holds only
  // the fresh tail, so the percentiles follow the recent distribution.
  for (int i = 0; i < 100; ++i) h.Observe(1.0);
  for (int i = 0; i < 8; ++i) h.Observe(5.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 108u);  // exact even though the reservoir wrapped
  EXPECT_DOUBLE_EQ(snap.p50, 5.0);
}

// The histogram as it was before striping: one set of totals and one
// reservoir cursor advanced per sample. Kept as the reference the striped
// class must reproduce exactly on one thread.
class UnstripedHistogram {
 public:
  UnstripedHistogram(std::vector<double> bounds, size_t capacity)
      : bounds_(std::move(bounds)),
        counts_(bounds_.size() + 1, 0),
        reservoir_(capacity, std::numeric_limits<double>::quiet_NaN()) {
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
    counts_.assign(bounds_.size() + 1, 0);
  }

  void Observe(double value) {
    ++counts_[static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin())];
    ++count_;
    sum_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
    reservoir_[cursor_++ % reservoir_.size()] = value;
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snap;
    snap.bucket_bounds = bounds_;
    snap.bucket_counts = counts_;
    snap.count = count_;
    snap.sum = sum_;
    snap.mean = count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    snap.min = count_ == 0 ? 0.0 : min_;
    snap.max = count_ == 0 ? 0.0 : max_;
    std::vector<double> samples;
    const size_t filled = std::min<size_t>(cursor_, reservoir_.size());
    for (size_t i = 0; i < filled; ++i) {
      if (!std::isnan(reservoir_[i])) samples.push_back(reservoir_[i]);
    }
    if (!samples.empty()) {
      std::vector<double> ps = math::Percentiles(samples, {50.0, 95.0, 99.0});
      snap.p50 = ps[0];
      snap.p95 = ps[1];
      snap.p99 = ps[2];
    }
    return snap;
  }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> reservoir_;
  uint64_t cursor_ = 0;
};

void ExpectBitwiseEqual(double a, double b, const char* field) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << field << ": " << a << " vs " << b;
}

// One thread's Observe sequence gives a snapshot identical, bit for bit,
// to the unstriped histogram's, before and after the reservoir wraps (a
// capacity that is not a multiple of the claim block, so blocks straddle
// the wrap).
TEST(HistogramTest, SingleThreadSnapshotMatchesUnstripedHistogram) {
  const std::vector<double> bounds = {4.0, 0.5, 1.0, 2.0, 1.0};
  constexpr size_t kCapacity = 100;
  HistogramOptions options;
  options.bucket_bounds = bounds;
  options.reservoir_capacity = kCapacity;
  Histogram striped(options);
  UnstripedHistogram reference(bounds, kCapacity);
  std::mt19937_64 rng(0x5715);
  std::uniform_real_distribution<double> value(-1.0, 6.0);
  const std::vector<size_t> checkpoints = {1, 63, 64, 65, 100, 101, 640, 1001};
  size_t observed = 0;
  for (size_t checkpoint : checkpoints) {
    for (; observed < checkpoint; ++observed) {
      // Every 7th sample sits exactly on a bucket edge.
      const double v = observed % 7 == 0 ? bounds[observed % bounds.size()]
                                         : value(rng);
      striped.Observe(v);
      reference.Observe(v);
    }
    const HistogramSnapshot got = striped.Snapshot();
    const HistogramSnapshot want = reference.Snapshot();
    SCOPED_TRACE("after " + std::to_string(observed) + " observations");
    EXPECT_EQ(got.count, want.count);
    ExpectBitwiseEqual(got.sum, want.sum, "sum");
    ExpectBitwiseEqual(got.min, want.min, "min");
    ExpectBitwiseEqual(got.max, want.max, "max");
    ExpectBitwiseEqual(got.mean, want.mean, "mean");
    ExpectBitwiseEqual(got.p50, want.p50, "p50");
    ExpectBitwiseEqual(got.p95, want.p95, "p95");
    ExpectBitwiseEqual(got.p99, want.p99, "p99");
    EXPECT_EQ(got.bucket_bounds, want.bucket_bounds);
    EXPECT_EQ(got.bucket_counts, want.bucket_counts);
  }
}

TEST(HistogramTest, ResetRestartsMinMaxTracking) {
  Histogram h(HistogramOptions{{10.0}});
  h.Observe(-5.0);
  h.Observe(7.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  // A fresh observation after Reset must not compare against stale
  // sentinels from before the reset.
  h.Observe(2.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 2.0);
  EXPECT_EQ(snap.count, 1u);
}

TEST(RegistryTest, SameNameReturnsSamePointer) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  Histogram* ha = registry.GetHistogram("x.seconds");
  Histogram* hb = registry.GetHistogram("x.seconds");
  EXPECT_EQ(ha, hb);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(ha));
}

TEST(RegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("r.count");
  Histogram* h = registry.GetHistogram("r.seconds");
  c->Increment(3);
  h->Observe(1.0);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  // The old pointers still feed the same registered metrics.
  c->Increment();
  EXPECT_EQ(registry.GetCounter("r.count")->Value(), 1u);
}

TEST(RegistryTest, SnapshotJsonContainsEverySection) {
  MetricRegistry registry;
  registry.GetCounter("a.count")->Increment(7);
  registry.GetGauge("a.depth")->Set(2.5);
  registry.GetHistogram("a.seconds")->Observe(0.5);
  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"a.depth\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
}

TEST(RegistryTest, WriteSnapshotJsonRoundTripsToDisk) {
  MetricRegistry registry;
  registry.GetCounter("w.count")->Increment();
  std::string path = testing::TempDir() + "/kgov_telemetry_snapshot.json";
  ASSERT_TRUE(registry.WriteSnapshotJson(path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, registry.SnapshotJson());
  std::remove(path.c_str());
}

TEST(RegistryTest, WriteSnapshotJsonFailsCleanlyOnBadPath) {
  MetricRegistry registry;
  EXPECT_FALSE(
      registry.WriteSnapshotJson("/nonexistent-dir/snapshot.json").ok());
}

TEST(ScopedSpanTest, RecordsElapsedSecondsOnDestruction) {
  Histogram h(HistogramOptions{DefaultLatencyBuckets()});
  {
    ScopedSpan span(&h);
  }
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
  EXPECT_LT(snap.max, 5.0);  // an empty scope is nowhere near 5s
}

TEST(ScopedSpanTest, CancelDropsTheMeasurement) {
  Histogram h(HistogramOptions{DefaultLatencyBuckets()});
  {
    ScopedSpan span(&h);
    span.Cancel();
  }
  EXPECT_EQ(h.Count(), 0u);
}

TEST(ScopedSpanTest, NameConstructorTargetsSpanNamespace) {
  Histogram* h = MetricRegistry::Global().GetHistogram(
      "span.test_telemetry.stage.seconds");
  uint64_t before = h->Count();
  {
    ScopedSpan span(std::string("test_telemetry.stage"));
  }
  EXPECT_EQ(h->Count(), before + 1);
}

// The satellite concurrency requirement: N threads hammering the same
// counters and histogram through a ThreadPool must lose nothing.
TEST(ConcurrencyTest, CountersAndHistogramsAreExactUnderContention) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("stress.count");
  Histogram* histogram = registry.GetHistogram("stress.seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    futures.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.Submit([counter, histogram, t] {
        for (int i = 0; i < kPerThread; ++i) {
          counter->Increment();
          histogram->Observe(static_cast<double>(t) * 1e-4);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot snap = histogram->Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.bucket_counts) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// Observe takes no lock: concurrent observers claim reservoir slots with
// an atomic cursor while a reader snapshots. Counts stay exact and the
// percentiles only ever see observed values (TSan runs this too).
TEST(HistogramTest, ObserveRacingSnapshotKeepsCountExactAndSamplesReal) {
  HistogramOptions options;
  options.bucket_bounds = {1.0};
  options.reservoir_capacity = 64;  // small, so the ring wraps constantly
  Histogram histogram(options);
  constexpr double kValue = 0.5;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> observers;
  for (int t = 0; t < kThreads; ++t) {
    observers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) histogram.Observe(kValue);
      running.fetch_sub(1);
    });
  }
  uint64_t last_count = 0;
  int snapshots = 0;
  while (running.load() > 0 || snapshots == 0) {
    HistogramSnapshot snap = histogram.Snapshot();
    ++snapshots;
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
    // An empty reservoir reads 0; anything else must be the one value
    // ever observed.
    for (double p : {snap.p50, snap.p95, snap.p99}) {
      EXPECT_TRUE(p == 0.0 || p == kValue) << p;
    }
  }
  for (std::thread& t : observers) t.join();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(histogram.Count(), total);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, total);
  EXPECT_EQ(snap.bucket_counts.front(), total);
  EXPECT_DOUBLE_EQ(snap.sum, kValue * static_cast<double>(total));
  EXPECT_DOUBLE_EQ(snap.p50, kValue);
  EXPECT_DOUBLE_EQ(snap.p99, kValue);
}

TEST(ConcurrencyTest, RegistrationRacesResolveToOneMetric) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads);
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.Submit([&registry, &seen, t] {
        Counter* c = registry.GetCounter("race.count");
        c->Increment();
        seen[static_cast<size_t>(t)] = c;
      }));
    }
    for (auto& f : futures) f.get();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

TEST(SolverTelemetryTest, SolveFeedsIterationAndSpanMetrics) {
  MetricRegistry& reg = MetricRegistry::Global();
  const uint64_t solves0 = reg.GetCounter("sgp.solver.solves")->Value();
  const uint64_t iters0 = reg.GetCounter("sgp.solver.iterations")->Value();
  const uint64_t span0 =
      reg.GetHistogram("span.sgp.solve.seconds")->Count();

  math::SgpProblem problem;
  problem.AddVariable(0.3, 0.01, 1.0);
  problem.AddVariable(0.7, 0.01, 1.0);
  math::Signomial g;
  g.AddTerm(math::Monomial(1.0, {{1, 1.0}}));
  g.AddTerm(math::Monomial(-1.0, {{0, 1.0}}));
  problem.AddConstraint(g, "x1<=x0");
  math::SgpSolution solution =
      math::SgpSolver(math::SgpSolverOptions{}).Solve(problem);
  ASSERT_TRUE(solution.status.ok());

  EXPECT_EQ(reg.GetCounter("sgp.solver.solves")->Value(), solves0 + 1);
  EXPECT_GE(reg.GetCounter("sgp.solver.iterations")->Value(),
            iters0 + static_cast<uint64_t>(solution.iterations));
  EXPECT_EQ(reg.GetHistogram("span.sgp.solve.seconds")->Count(),
            span0 + 1);
}

}  // namespace
}  // namespace kgov::telemetry
