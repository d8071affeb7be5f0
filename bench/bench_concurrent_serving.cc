// Concurrent serving throughput: serve::QueryEngine over an
// OnlineKgOptimizer's pinned epoch, swept across worker-thread counts
// {1, 2, 4} with the result cache off, so every query propagates on the
// pool. Each row is wall-clock queries/sec of SubmitBatch on this host
// (measured_qps): the median of kReps repetitions of at least a minimum
// duration each (1 s, 0.25 s in --smoke), with their IQR; host_cores is
// recorded in the JSON, because on a single-core runner the thread sweep
// cannot show real scaling (every worker shares one core).
//
// The hit-path sweep times the cache hit. A hit is served by the probe on
// the calling thread, before admission, so it uses no pool worker and
// depends on the number of callers, not on the pool's threads: 1, 2 and 4
// caller threads each call Submit in a closed loop on a warmed cache
// (every call a hit) for at least a minimum duration per point; each
// point is the median of three repetitions, for both the per-call p50 and
// the qps. The cache-hit speedup is the 1-caller hit-path qps over the
// 1-thread cache-off row.
//
// A shedding phase follows the sweeps: clients hammer a capacity-2
// admission window; shed Submits must return kResourceExhausted promptly
// (p99 is gated in tools/ci/check.sh).
//
// Writes BENCH_concurrent.json + a telemetry snapshot with the serve.*
// counters and the span.serve.query.seconds histogram populated
// (tools/ci/check.sh validates both). --smoke shrinks the stream for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/online_optimizer.h"
#include "math/stats.h"
#include "qa/kg_builder.h"
#include "serve/query_engine.h"

namespace kgov {
namespace {

struct Setup {
  qa::Corpus corpus;
  qa::KnowledgeGraph kg;
  std::vector<ppr::QuerySeed> seeds;
};

Setup MakeSetup(size_t num_questions) {
  Setup s;
  Rng rng(2718);
  Result<qa::Corpus> corpus =
      qa::GenerateCorpus(qa::TaobaoScaleParams(), rng);
  KGOV_CHECK(corpus.ok());
  s.corpus = std::move(corpus).value();
  Result<qa::KnowledgeGraph> kg = qa::BuildKnowledgeGraph(s.corpus);
  KGOV_CHECK(kg.ok());
  s.kg = std::move(kg).value();
  std::vector<qa::Question> questions = qa::GenerateQuestions(
      s.corpus, num_questions, qa::TaobaoScaleParams(), rng);
  for (const qa::Question& q : questions) {
    s.seeds.push_back(qa::LinkQuestion(q, s.kg.num_entities));
  }
  return s;
}

constexpr int kReps = 3;

struct SweepPoint {
  size_t threads = 0;
  /// Per repetition: completed queries per second.
  std::vector<double> qps_reps;
  double measured_qps = 0.0;  // median of qps_reps
  double qps_iqr = 0.0;
};

/// One configuration: build a cache-off engine, warm up one round
/// (untimed), then kReps repetitions, each serving full replays of the
/// stream for at least `min_seconds`, and report wall-clock throughput.
SweepPoint RunConfig(const Setup& s, const core::OnlineKgOptimizer& online,
                     size_t threads, double min_seconds) {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 5;
  options.top_k = 20;
  options.num_threads = threads;
  options.enable_cache = false;
  auto engine_or =
      serve::QueryEngine::Create(&online, &s.kg.answer_nodes, options);
  KGOV_CHECK(engine_or.ok());
  serve::QueryEngine& engine = **engine_or;

  auto serve_round = [&]() {
    std::vector<StatusOr<serve::RankedAnswers>> results =
        engine.SubmitBatch(s.seeds);
    for (const auto& r : results) KGOV_CHECK(r.ok());
  };

  serve_round();  // warm-up
  SweepPoint point;
  point.threads = threads;
  for (int rep = 0; rep < kReps; ++rep) {
    size_t queries = 0;
    Timer timer;
    do {
      serve_round();
      queries += s.seeds.size();
    } while (timer.ElapsedSeconds() < min_seconds);
    point.qps_reps.push_back(static_cast<double>(queries) /
                             timer.ElapsedSeconds());
  }
  point.measured_qps = math::Median(point.qps_reps);
  point.qps_iqr = math::Percentile(point.qps_reps, 75) -
                  math::Percentile(point.qps_reps, 25);
  return point;
}

struct HitPathPoint {
  size_t callers = 0;
  /// Per repetition: completed Submits per second, and the p50 latency of
  /// one Submit in microseconds.
  std::vector<double> qps_reps;
  std::vector<double> p50_us_reps;
  double qps = 0.0;     // median of qps_reps
  double p50_us = 0.0;  // median of p50_us_reps
  /// Hits over queries across every repetition (1.0: nothing propagated).
  double hit_ratio = 0.0;
};

/// `callers` threads each call Submit on `engine` in a closed loop for
/// `min_seconds`, cycling through the (cached) seeds from their own
/// offset. Returns the repetition's qps and p50 (us).
std::pair<double, double> RunHitPathRep(serve::QueryEngine& engine,
                                        const std::vector<ppr::QuerySeed>& seeds,
                                        size_t callers, double min_seconds) {
  // Per-caller latency ring, allocated before the clock starts; it keeps
  // the latest kRing calls.
  constexpr size_t kRing = 1 << 16;
  std::vector<std::vector<float>> latency_us(callers,
                                             std::vector<float>(kRing));
  std::vector<uint64_t> completed(callers, 0);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c]() {
      ready.fetch_add(1, std::memory_order_relaxed);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Timer window;
      uint64_t n = 0;
      size_t i = c * seeds.size() / callers;
      while (window.ElapsedSeconds() < min_seconds) {
        const auto begin = std::chrono::steady_clock::now();
        StatusOr<serve::RankedAnswers> r = engine.Submit(seeds[i]);
        const auto end = std::chrono::steady_clock::now();
        KGOV_CHECK(r.ok());
        latency_us[c][n % kRing] = static_cast<float>(
            std::chrono::duration<double, std::micro>(end - begin).count());
        ++n;
        if (++i == seeds.size()) i = 0;
      }
      completed[c] = n;
    });
  }
  while (ready.load(std::memory_order_relaxed) < callers) {
    std::this_thread::yield();
  }
  Timer wall;
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  uint64_t total = 0;
  std::vector<double> kept;
  for (size_t c = 0; c < callers; ++c) {
    total += completed[c];
    const size_t held = static_cast<size_t>(
        std::min<uint64_t>(completed[c], kRing));
    kept.insert(kept.end(), latency_us[c].begin(),
                latency_us[c].begin() + static_cast<ptrdiff_t>(held));
  }
  return {static_cast<double>(total) / seconds, math::Median(std::move(kept))};
}

/// The hit-path point for `callers` threads: a fresh engine, warmed by
/// one SubmitBatch of every seed, then kReps timed repetitions.
HitPathPoint RunHitPath(const Setup& s, const core::OnlineKgOptimizer& online,
                        size_t callers, double min_seconds) {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 5;
  options.top_k = 20;
  options.num_threads = 2;  // only the warm-up batch uses the pool
  auto engine_or =
      serve::QueryEngine::Create(&online, &s.kg.answer_nodes, options);
  KGOV_CHECK(engine_or.ok());
  serve::QueryEngine& engine = **engine_or;
  for (const auto& r : engine.SubmitBatch(s.seeds)) KGOV_CHECK(r.ok());

  HitPathPoint point;
  point.callers = callers;
  const serve::QueryEngine::ServeStats before = engine.GetServeStats();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto [qps, p50_us] =
        RunHitPathRep(engine, s.seeds, callers, min_seconds);
    point.qps_reps.push_back(qps);
    point.p50_us_reps.push_back(p50_us);
  }
  const serve::QueryEngine::ServeStats after = engine.GetServeStats();
  point.qps = math::Median(point.qps_reps);
  point.p50_us = math::Median(point.p50_us_reps);
  point.hit_ratio = static_cast<double>(after.hits - before.hits) /
                    static_cast<double>(after.queries - before.queries);
  return point;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

serve::QueryEngineOptions PhaseOptions() {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 5;
  options.top_k = 20;
  return options;
}

struct ShedReport {
  size_t capacity = 0;
  uint64_t attempted = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  double shed_p50_seconds = 0.0;
  double shed_p99_seconds = 0.0;
};

double Percentile(std::vector<double>& sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(sorted_in_place.size() - 1));
  return sorted_in_place[idx];
}

/// Saturate a tiny admission window (capacity 2) from four client
/// threads: while two of them propagate, further Submits must shed with
/// kResourceExhausted without queuing behind the work. The
/// shed-path latency percentiles are the promptness number check.sh
/// gates on.
ShedReport RunShedPhase(const Setup& s, const core::OnlineKgOptimizer& online,
                        int duration_ms) {
  serve::QueryEngineOptions options = PhaseOptions();
  options.num_threads = 1;
  options.enable_cache = false;  // every admitted query occupies the window
  options.admission.capacity = 2;
  auto engine_or =
      serve::QueryEngine::Create(&online, &s.kg.answer_nodes, options);
  KGOV_CHECK(engine_or.ok());
  serve::QueryEngine& engine = **engine_or;

  constexpr size_t kClients = 4;
  std::atomic<uint64_t> served{0};
  std::vector<std::vector<double>> shed_latency(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Timer deadline;
      size_t i = c;
      while (deadline.ElapsedSeconds() * 1000.0 <
             static_cast<double>(duration_ms)) {
        Timer call;
        StatusOr<serve::RankedAnswers> r =
            engine.Submit(s.seeds[i % s.seeds.size()]);
        if (r.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          KGOV_CHECK(r.status().code() == StatusCode::kResourceExhausted);
          shed_latency[c].push_back(call.ElapsedSeconds());
        }
        i += kClients;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  ShedReport report;
  report.capacity = options.admission.capacity;
  report.served = served.load();
  std::vector<double> all;
  for (const std::vector<double>& per_client : shed_latency) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  report.shed = all.size();
  report.attempted = report.served + report.shed;
  report.shed_p50_seconds = Percentile(all, 0.50);
  report.shed_p99_seconds = Percentile(all, 0.99);
  return report;
}

void RunAndReport(bool smoke, const char* json_path,
                  const char* telemetry_path) {
  bench::Banner(
      "Concurrent serving: thread sweep + cache hit path "
      "(serve::QueryEngine)",
      "kgov serving subsystem (docs/serving.md)");

  const size_t num_questions = smoke ? 16 : 64;
  const double sweep_seconds = smoke ? 0.25 : 1.0;
  Setup s = MakeSetup(num_questions);

  core::OnlineOptimizerOptions online_options;
  online_options.optimizer.apply_judgment_filter = false;
  core::OnlineKgOptimizer online(s.kg.graph, online_options);

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("graph: %zu nodes, %zu edges; %zu seeds; top-20 over %zu "
              "answers; host_cores=%u, %s build%s\n",
              s.kg.graph.NumNodes(), s.kg.graph.NumEdges(), s.seeds.size(),
              s.kg.answer_nodes.size(), host_cores, KGOV_BUILD_TYPE,
              smoke ? " [smoke]" : "");

  const std::vector<size_t> thread_counts = {1, 2, 4};
  std::vector<SweepPoint> sweep;
  for (size_t threads : thread_counts) {
    sweep.push_back(RunConfig(s, online, threads, sweep_seconds));
  }

  std::printf("thread sweep: SubmitBatch, cache off, median of %d reps of "
              ">= %.2f s each\n",
              kReps, sweep_seconds);
  bench::TablePrinter table({"threads", "measured q/s", "IQR"}, {7, 12, 10});
  table.PrintHeader();
  for (const SweepPoint& p : sweep) {
    table.PrintRow({std::to_string(p.threads), bench::Num(p.measured_qps, 1),
                    bench::Num(p.qps_iqr, 1)});
  }

  // A single-core host cannot produce a meaningful thread-scaling verdict:
  // every worker time-slices one core, so the "scaling" ratio only measures
  // scheduler noise. Rather than publish a number readers might gate on,
  // emit "scaling": null and say so loudly.
  const bool scaling_meaningful = host_cores > 1;
  double scaling_measured = 0.0;
  if (scaling_meaningful) {
    scaling_measured = sweep.back().measured_qps / sweep.front().measured_qps;
    std::printf("1->4 thread scaling (cache off): %.2fx measured "
                "(host has %u cores)\n",
                scaling_measured, host_cores);
  } else {
    std::printf(
        "WARNING: host has 1 core - the thread sweep cannot measure real\n"
        "WARNING: scaling (all workers share one core). Emitting\n"
        "WARNING: \"scaling\": null; run on a multi-core host for a\n"
        "WARNING: meaningful scaling verdict.\n");
  }
  // Three smoke reps still measure >= 1 s per point, which the lock-rank
  // overhead gate in tools/ci/check.sh reads.
  const double hit_path_seconds = smoke ? 0.35 : 1.0;
  std::vector<HitPathPoint> hit_path;
  for (size_t callers : thread_counts) {
    hit_path.push_back(RunHitPath(s, online, callers, hit_path_seconds));
  }
  std::printf("hit path: Submit on a warmed cache, median of %d reps of "
              ">= %.2f s each\n",
              kReps, hit_path_seconds);
  bench::TablePrinter hit_table({"callers", "q/s", "p50 us", "hit ratio"},
                                {7, 12, 8, 9});
  hit_table.PrintHeader();
  for (const HitPathPoint& p : hit_path) {
    hit_table.PrintRow({std::to_string(p.callers), bench::Num(p.qps, 1),
                        bench::Num(p.p50_us, 3), bench::Num(p.hit_ratio, 4)});
  }
  // One caller's hits against one pool worker's propagations.
  const double cache_speedup =
      hit_path.front().qps / sweep.front().measured_qps;
  std::printf("cache-hit speedup (1-caller hit path over 1-thread "
              "cache-off row): %.2fx\n",
              cache_speedup);

  ShedReport shed = RunShedPhase(s, online, smoke ? 200 : 1000);
  std::printf(
      "shedding: capacity %zu, %llu attempted -> %llu served, %llu shed; "
      "shed p50 %.1f us, p99 %.1f us\n",
      shed.capacity, static_cast<unsigned long long>(shed.attempted),
      static_cast<unsigned long long>(shed.served),
      static_cast<unsigned long long>(shed.shed),
      shed.shed_p50_seconds * 1e6, shed.shed_p99_seconds * 1e6);

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"concurrent_serving\",\n"
               "  \"smoke\": %s,\n"
               "  \"host_cores\": %u,\n"
               "  \"build_type\": \"%s\",\n"
               "  \"nodes\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"seeds\": %zu,\n"
               "  \"top_k\": 20,\n"
               "  \"max_length\": 5,\n"
               "  \"sweep\": {\"reps\": %d, \"min_seconds\": %.3f, "
               "\"points\": [\n",
               smoke ? "true" : "false", host_cores, KGOV_BUILD_TYPE,
               s.kg.graph.NumNodes(), s.kg.graph.NumEdges(), s.seeds.size(),
               kReps, sweep_seconds);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"cache\": false, "
                 "\"measured_qps\": %.1f, \"qps_iqr\": %.1f, "
                 "\"qps_reps\": %s}%s\n",
                 p.threads, p.measured_qps, p.qps_iqr,
                 JsonArray(p.qps_reps).c_str(),
                 i + 1 < sweep.size() ? "," : "");
  }
  if (scaling_meaningful) {
    std::fprintf(out,
                 "  ]},\n"
                 "  \"scaling\": {\"measured_1_to_4\": %.3f},\n",
                 scaling_measured);
  } else {
    std::fprintf(out,
                 "  ]},\n"
                 "  \"scaling\": null,\n");
  }
  std::fprintf(out,
               "  \"hit_path\": {\"reps\": %d, \"min_seconds\": %.3f, "
               "\"points\": [\n",
               kReps, hit_path_seconds);
  for (size_t i = 0; i < hit_path.size(); ++i) {
    const HitPathPoint& p = hit_path[i];
    std::fprintf(out,
                 "    {\"callers\": %zu, \"qps\": %.1f, \"p50_us\": %.3f, "
                 "\"hit_ratio\": %.4f, \"qps_reps\": %s, "
                 "\"p50_us_reps\": %s}%s\n",
                 p.callers, p.qps, p.p50_us, p.hit_ratio,
                 JsonArray(p.qps_reps).c_str(),
                 JsonArray(p.p50_us_reps).c_str(),
                 i + 1 < hit_path.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
  std::fprintf(out,
               "  \"cache_hit_speedup\": %.3f,\n"
               "  \"shedding\": {\"capacity\": %zu, \"attempted\": %llu, "
               "\"served\": %llu, \"shed\": %llu, "
               "\"shed_p50_seconds\": %.8f, \"shed_p99_seconds\": %.8f}\n"
               "}\n",
               cache_speedup, shed.capacity,
               static_cast<unsigned long long>(shed.attempted),
               static_cast<unsigned long long>(shed.served),
               static_cast<unsigned long long>(shed.shed),
               shed.shed_p50_seconds, shed.shed_p99_seconds);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  bench::DumpTelemetry(telemetry_path);
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_concurrent.json";
  const char* telemetry_path = "BENCH_concurrent_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--telemetry-json") == 0 && i + 1 < argc) {
      telemetry_path = argv[i + 1];
    }
  }
  kgov::RunAndReport(smoke, json_path, telemetry_path);
  return 0;
}
