// qa_cold and qa_hot: closed-loop query serving through serve::QueryEngine.
//
// Client threads each send their next query as soon as the previous one
// returns. qa_cold never repeats a query seed, so every query runs a
// ppr::EipdEngine propagation on the serving pool; qa_hot draws Zipf(1)
// from 2,000 seeds that set-up already put in the result cache, so the
// propagation all but disappears and the Submit -> pool -> cache -> reply
// path is what is left.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "common/timer.h"
#include "core/online_optimizer.h"
#include "graph/csr.h"
#include "ppr/eipd_engine.h"
#include "serve/query_engine.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace kgbench {
namespace {

using namespace kgov;

// qa_cold: 4 clients on an nproc-worker pool, enough concurrency to load
// every core with propagations. qa_hot: 2 clients on 2 workers. A hit takes
// about 20 us, so with 4 + 4 threads on 4 cores every hand-off waited on
// scheduler time slices and qps moved by 2x from run to run; with at most
// one thread per core the hand-off itself is what is timed.
constexpr size_t kColdClients = 4;
constexpr size_t kHotClients = 2;
constexpr size_t kHotWorkers = 2;
constexpr size_t kBaseSeeds = 2000;
// Every kSampleEvery-th query is kept for the bitwise check.
constexpr uint64_t kSampleEvery = 509;
// In traced runs, every kTraceEvery-th query records spans.
constexpr uint64_t kTraceEvery = 16;
// qps is the median over sub-windows of this length.
constexpr double kQpsWindowSeconds = 0.5;

struct Deployment {
  Environment env;
  std::unique_ptr<core::OnlineKgOptimizer> online;
  std::unique_ptr<serve::QueryEngine> engine;
  std::vector<ppr::QuerySeed> seeds;
  std::vector<graph::NodeId> best_nodes;  // ground truth of seeds[i]
};

serve::QueryEngineOptions EngineOptions(bool hot) {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 5;
  options.top_k = 20;
  options.num_threads =
      hot ? kHotWorkers : std::max(1u, std::thread::hardware_concurrency());
  return options;
}

void Deploy(const RunOptions& run, bool hot, Deployment* d) {
  d->engine.reset();
  d->online.reset();
  d->env = MakeEnvironment(run.seed, 100);
  core::OnlineOptimizerOptions options;
  options.optimizer = d->env.optimizer_options;
  d->online = std::make_unique<core::OnlineKgOptimizer>(
      d->env.sim.deployed.graph, options);
  auto engine = serve::QueryEngine::Create(
      d->online.get(), &d->env.sim.deployed.answer_nodes, EngineOptions(hot));
  if (!engine.ok()) Abort("QueryEngine::Create: " + engine.status().ToString());
  d->engine = std::move(engine).value();
  d->seeds = DistinctQuestionSeeds(d->env, kBaseSeeds, run.seed, &d->best_nodes);
}

/// One query: the index of its base question and the seed sent.
struct Query {
  size_t question = 0;
  ppr::QuerySeed seed;
};

struct Sample {
  ppr::QuerySeed seed;
  serve::RankedAnswers served;
};

/// What one client thread records. Storage is allocated and touched before
/// the window and never grows, so peak RSS does not depend on throughput:
/// latencies go to a fixed-size uniform reservoir, completions to counts
/// per sub-window.
struct ClientLog {
  static constexpr size_t kReservoir = 1 << 18;
  static constexpr size_t kMaxSamples = 256;

  std::vector<float> latency_us = std::vector<float>(kReservoir);
  std::vector<uint8_t> from_cache = std::vector<uint8_t>(kReservoir);
  uint64_t completed = 0;  // queries finished inside the window
  uint64_t failed = 0;
  double total_us = 0.0;
  std::vector<uint64_t> per_bin;
  std::vector<Sample> samples;
  QuestionRanks ranks{0};

  /// Records one completed query (Vitter's algorithm R for the reservoir).
  void Record(float us, bool hit, double end_s, Rng& rng) {
    const size_t slot = completed < kReservoir
                            ? completed
                            : static_cast<size_t>(rng.NextIndex(completed + 1));
    if (slot < kReservoir) {
      latency_us[slot] = us;
      from_cache[slot] = hit ? 1 : 0;
    }
    ++completed;
    total_us += us;
    const size_t bin = static_cast<size_t>(end_s / kQpsWindowSeconds);
    if (bin < per_bin.size()) ++per_bin[bin];
  }

  size_t kept() const { return std::min<uint64_t>(completed, kReservoir); }
};

struct WindowResult {
  std::vector<ClientLog> clients;
  double seconds = 0.0;
};

/// Runs the closed loop for `seconds`. `next_query(index, rng)` yields the
/// query for global query number `index`; `best_nodes[q]` is the
/// ground-truth answer of base question q.
WindowResult RunClosedLoop(
    serve::QueryEngine* engine, size_t clients, double seconds,
    uint64_t run_seed, const std::vector<graph::NodeId>& best_nodes,
    const std::function<Query(uint64_t, Rng&)>& next_query) {
  WindowResult result;
  result.seconds = seconds;
  result.clients.resize(clients);
  for (ClientLog& log : result.clients) {
    log.per_bin.assign(static_cast<size_t>(seconds / kQpsWindowSeconds), 0);
    log.samples.reserve(ClientLog::kMaxSamples);
    log.ranks = QuestionRanks(best_nodes.size());
  }
  std::atomic<uint64_t> next_index{0};
  std::atomic<bool> go{false};
  std::chrono::steady_clock::time_point t0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = result.clients[c];
      Rng rng(run_seed * 7919 + c);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto deadline =
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds));
      while (true) {
        const uint64_t index = next_index.fetch_add(1, std::memory_order_relaxed);
        const bool traced = index % kTraceEvery == 0;
        const uint64_t trace_id = traced ? NewTraceId() : 0;
        std::optional<Span> root;
        if (traced) root.emplace("bench", "client.query", trace_id);
        Query query = next_query(index, rng);
        const auto begin = std::chrono::steady_clock::now();
        StatusOr<serve::RankedAnswers> answers = [&] {
          std::optional<Span> span;
          if (traced) span.emplace("serve", "QueryEngine::Submit", trace_id);
          return engine->Submit(query.seed);
        }();
        const auto end = std::chrono::steady_clock::now();
        root.reset();
        if (end >= deadline) break;  // straddles the window edge: dropped
        const bool ok = answers.ok();
        log.Record(static_cast<float>(
                       std::chrono::duration<double, std::micro>(end - begin)
                           .count()),
                   ok && answers->from_cache,
                   std::chrono::duration<double>(end - t0).count(), rng);
        if (!ok) {
          ++log.failed;
          continue;
        }
        log.ranks.Add(query.question,
                      ReciprocalRank(answers->answers,
                                     best_nodes[query.question]));
        if (index % kSampleEvery == 0 &&
            log.samples.size() < ClientLog::kMaxSamples) {
          log.samples.push_back(Sample{std::move(query.seed), *answers});
        }
      }
    });
  }
  t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return result;
}

/// Checks every sampled served ranking against a direct EipdEngine::Rank
/// on the same pinned epoch, bit for bit.
void CheckSamples(const Deployment& d, const WindowResult& window,
                  Report* report) {
  const core::ServingEpoch epoch = d.online->CurrentEpoch();
  if (d.engine->PinnedEpochNumber() != epoch.epoch) {
    report->Mismatch("engine pinned epoch differs from the published epoch");
  }
  ppr::EipdEngine direct(epoch.view(), d.engine->options().eipd);
  size_t checked = 0;
  for (const ClientLog& log : window.clients) {
    for (const Sample& s : log.samples) {
      ++checked;
      StatusOr<std::vector<ppr::ScoredAnswer>> expected =
          direct.Rank(s.seed, d.env.sim.deployed.answer_nodes,
                      d.engine->options().top_k);
      if (!expected.ok()) {
        report->Mismatch("direct Rank failed: " + expected.status().ToString());
        continue;
      }
      if (s.served.epoch != epoch.epoch ||
          !SameRanking(s.served.answers, *expected)) {
        report->Mismatch(std::string("served top-k differs from direct Rank") +
                         (s.served.from_cache ? " (cache hit)" : " (miss)"));
      }
    }
  }
  if (checked == 0) report->Mismatch("no query was sampled for checking");
}

struct WindowStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;  // median over kQpsWindowSeconds sub-windows
  double mrr = 0.0;
};

/// Counts the window's operations into `report` and summarizes it.
WindowStats SummarizeWindow(const WindowResult& window, Report* report) {
  std::vector<double> latency;
  std::vector<double> bins(window.clients.front().per_bin.size(), 0.0);
  QuestionRanks ranks = window.clients.front().ranks;
  for (size_t c = 0; c < window.clients.size(); ++c) {
    const ClientLog& log = window.clients[c];
    latency.insert(latency.end(), log.latency_us.begin(),
                   log.latency_us.begin() + log.kept());
    for (size_t b = 0; b < bins.size(); ++b) {
      bins[b] += static_cast<double>(log.per_bin[b]) / kQpsWindowSeconds;
    }
    if (c > 0) ranks.Merge(log.ranks);
    report->Attempt(log.completed);
    report->Fail(log.failed);
  }
  WindowStats stats;
  stats.p50_us = Quantile(latency, 0.50);
  stats.p99_us = Quantile(latency, 0.99);
  stats.qps = Median(bins);
  stats.mrr = ranks.Mrr();
  return stats;
}

/// Serve-layer metrics from the engine counters, the client-side latency
/// split by cache outcome, and the program's propagation histogram.
void ReportServeLayer(const WindowResult& window,
                      const serve::QueryEngine::ServeStats& before,
                      const serve::QueryEngine::ServeStats& after,
                      Report* report) {
  const double queries = static_cast<double>(after.queries - before.queries);
  report->Set("serve.hit_ratio",
              static_cast<double>(after.hits - before.hits) / queries,
              "ratio");
  report->Set("serve.coalesced_ratio",
              static_cast<double>(after.followers - before.followers) /
                  queries,
              "ratio");
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  double total_us = 0.0;
  double completed = 0.0;
  for (const ClientLog& log : window.clients) {
    for (size_t i = 0; i < log.kept(); ++i) {
      (log.from_cache[i] ? hit_us : miss_us).push_back(log.latency_us[i]);
    }
    total_us += log.total_us;
    completed += static_cast<double>(log.completed);
  }
  if (!hit_us.empty()) report->Set("serve.hit_p50_us", Median(hit_us), "us");
  if (!miss_us.empty()) {
    report->Set("serve.miss_p50_us", Median(miss_us), "us");
  }
  // Mean Submit time not spent inside a propagation: pool queue, cache,
  // single-flight, top-k and telemetry.
  const telemetry::HistogramSnapshot propagate =
      telemetry::MetricRegistry::Global()
          .GetHistogram("serving.eipd.propagate.seconds")
          ->Snapshot();
  report->Set("serve.unattributed_us",
              (total_us - propagate.sum * 1e6) / completed, "us");
}

/// Shared body of both workloads.
void RunQa(const RunOptions& run, Report* report, bool hot) {
  Deployment d;
  double snapshot_build_ms = 0.0;
  const double setup_s = RepeatSetup([&] {
    Deploy(run, hot, &d);
    Timer snapshot_timer;
    graph::CsrSnapshot snapshot(d.env.sim.deployed.graph);
    snapshot_build_ms = snapshot_timer.ElapsedMillis();
    if (hot) {
      // Warm the cache with every seed the Zipf draw can produce, in
      // batches that fit the admission window.
      constexpr size_t kWarmBatch = 256;
      for (size_t i = 0; i < d.seeds.size(); i += kWarmBatch) {
        std::vector<ppr::QuerySeed> batch(
            d.seeds.begin() + i,
            d.seeds.begin() + std::min(d.seeds.size(), i + kWarmBatch));
        for (const StatusOr<serve::RankedAnswers>& r :
             d.engine->SubmitBatch(batch)) {
          if (!r.ok()) Abort("cache warm-up failed: " + r.status().ToString());
        }
      }
    }
  });

  ZipfSampler zipf(d.seeds.size());
  auto next_query = [&](uint64_t index, Rng& rng) -> Query {
    if (hot) {
      const size_t q = zipf.Sample(rng.NextDouble());
      return Query{q, d.seeds[q]};
    }
    // Cold: each round over the base seeds scales the first link weight
    // by a distinct factor, so no two queries share a cache key.
    const size_t q = index % d.seeds.size();
    Query query{q, d.seeds[q]};
    const uint64_t round = index / d.seeds.size();
    query.seed.links[0].second *= 1.0 + 1e-7 * static_cast<double>(round);
    return query;
  };

  if (run.trace) EnableTracing();
  telemetry::MetricRegistry::Global().Reset();
  const serve::QueryEngine::ServeStats before = d.engine->GetServeStats();
  WindowResult window =
      RunClosedLoop(d.engine.get(), hot ? kHotClients : kColdClients,
                    run.seconds, run.seed, d.best_nodes, next_query);
  const serve::QueryEngine::ServeStats after = d.engine->GetServeStats();

  CheckSamples(d, window, report);
  const double hit_ratio = static_cast<double>(after.hits - before.hits) /
                           static_cast<double>(after.queries - before.queries);
  if (!hot && hit_ratio > 0.01) {
    Abort("qa_cold self-check: cache hit ratio " + std::to_string(hit_ratio) +
          " > 0.01");
  }
  if (hot && hit_ratio < 0.95) {
    Abort("qa_hot self-check: cache hit ratio " + std::to_string(hit_ratio) +
          " < 0.95");
  }

  const WindowStats stats = SummarizeWindow(window, report);
  report->Set("setup_s", setup_s, "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("answer_p50_us", stats.p50_us, "us");
  report->Set("answer_mrr", stats.mrr, "ratio");
  if (!run.trace) return;

  // The traced run reports only per-layer metrics; its end-to-end numbers
  // go to stderr so they can be compared with untraced runs.
  std::fprintf(stderr, "kgbench: traced end-to-end: %s\n",
               report->ToJson().c_str());
  report->ClearMetrics();
  Report& layers = *report;
  // qps and p99 are per-layer, not gated: on qa_hot both are set by rare
  // multi-millisecond hand-off stalls of the host (qps moved by 22%
  // between runs while p50 held within 5%).
  layers.Set("serve.qps", stats.qps, "1/s");
  layers.Set("serve.query_p99_us", stats.p99_us, "us");
  ReportServeLayer(window, before, after, &layers);
  layers.Set("qa.build_s", d.env.build_seconds, "s");
  layers.Set("graph.snapshot_build_ms", snapshot_build_ms, "ms");
  if (!hot) {
    // Single-thread replay of the served seeds straight into the kernel.
    ppr::EipdEngine direct(d.online->CurrentEpoch().view(),
                           d.engine->options().eipd);
    std::vector<double> rank_us;
    for (const ppr::QuerySeed& seed : d.seeds) {
      const uint64_t trace_id = NewTraceId();
      Span span("ppr", "EipdEngine::Rank", trace_id);
      Timer timer;
      StatusOr<std::vector<ppr::ScoredAnswer>> ranked = direct.Rank(
          seed, d.env.sim.deployed.answer_nodes, d.engine->options().top_k);
      rank_us.push_back(timer.ElapsedSeconds() * 1e6);
      if (!ranked.ok()) layers.Mismatch("replayed Rank failed");
    }
    layers.Set("ppr.rank_p50_us", Median(rank_us), "us");
    telemetry::MetricRegistry& registry = telemetry::MetricRegistry::Global();
    const double dense =
        static_cast<double>(registry.GetCounter("serving.eipd.kernel.dense")->Value());
    const double sparse =
        static_cast<double>(registry.GetCounter("serving.eipd.kernel.sparse")->Value());
    layers.Set("ppr.kernel_sparse_ratio", sparse / (dense + sparse), "ratio");
  }
  ReportTrace(run, &layers);
}

}  // namespace

void RunQaCold(const RunOptions& run, Report* report) {
  RunQa(run, report, /*hot=*/false);
}

void RunQaHot(const RunOptions& run, Report* report) {
  RunQa(run, report, /*hot=*/true);
}

}  // namespace kgbench
