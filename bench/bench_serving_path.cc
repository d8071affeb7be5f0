// Serving-path throughput: EipdEngine::Rank over a GraphView of a frozen
// CsrSnapshot of the Taobao-scale help-desk KG (~4k nodes), reusing one
// PropagationWorkspace, through two engines side by side:
//
//   full            no answer set: the hop into level L walks every
//                   out-edge of level L-1;
//   answer-indexed  the answer nodes as its answer set: that hop walks
//                   only the edges into them (what serve::QueryEngine and
//                   qa::QaSystem serve through).
//
// Every run first ranks every seed through both engines and compares the
// rankings field by field (node ids and score bits); a difference exits
// non-zero. The two paths are then timed in alternating repetitions of at
// least kMinSeconds each; the JSON records the median q/s and IQR of each
// path and the median-of-pairs speedup. Each path's Rank microseconds per
// query split into propagate + select: the propagation is what the
// kernel's own timer (the serving.eipd.propagate.seconds histogram, one
// observation per Rank) recorded inside the path's timing windows, and
// the select is the rest of Rank - the top-k (ppr::TopKByScore) and seed
// validation.
//
// Writes BENCH_serving.json so CI can track the serving-path trajectory
// (tools/ci/check.sh runs this from the repo root). How the kernel scales
// to million-node graphs is bench_scale's job (BENCH_scale.json).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "math/stats.h"
#include "ppr/eipd_engine.h"
#include "qa/kg_builder.h"
#include "telemetry/metrics.h"

namespace kgov {
namespace {

struct Setup {
  qa::Corpus corpus;
  qa::KnowledgeGraph kg;
  graph::CsrSnapshot snapshot;
  std::vector<ppr::QuerySeed> seeds;
};

Setup* GlobalSetup() {
  static Setup* setup = [] {
    auto* s = new Setup();
    Rng rng(2718);
    Result<qa::Corpus> corpus =
        qa::GenerateCorpus(qa::TaobaoScaleParams(), rng);
    KGOV_CHECK(corpus.ok());
    s->corpus = std::move(corpus).value();
    Result<qa::KnowledgeGraph> kg = qa::BuildKnowledgeGraph(s->corpus);
    KGOV_CHECK(kg.ok());
    s->kg = std::move(kg).value();
    s->snapshot = graph::CsrSnapshot(s->kg.graph);
    std::vector<qa::Question> questions = qa::GenerateQuestions(
        s->corpus, 64, qa::TaobaoScaleParams(), rng);
    for (const qa::Question& q : questions) {
      s->seeds.push_back(qa::LinkQuestion(q, s->kg.num_entities));
    }
    return s;
  }();
  return setup;
}

constexpr size_t kTopK = 20;
constexpr int kReps = 9;
constexpr double kMinSeconds = 0.2;

/// One timing window of a path: queries/sec, and the mean time per query
/// the kernel's propagation timer recorded in it.
struct Window {
  double qps = 0.0;
  double propagate_us = 0.0;
};

/// Runs `fn(seed)` (one Rank) over every seed, round after round, for at
/// least kMinSeconds.
template <typename Fn>
Window MeasureWindow(const Setup& s, Fn&& fn) {
  telemetry::Histogram* const propagate =
      telemetry::MetricRegistry::Global().GetHistogram(
          "serving.eipd.propagate.seconds");
  const telemetry::HistogramSnapshot before = propagate->Snapshot();
  size_t queries = 0;
  Timer timer;
  do {
    for (const ppr::QuerySeed& seed : s.seeds) {
      benchmark::DoNotOptimize(fn(seed));
    }
    queries += s.seeds.size();
  } while (timer.ElapsedSeconds() < kMinSeconds);
  const double seconds = timer.ElapsedSeconds();
  const telemetry::HistogramSnapshot after = propagate->Snapshot();
  KGOV_CHECK(after.count - before.count == queries);
  return {static_cast<double>(queries) / seconds,
          1e6 * (after.sum - before.sum) / static_cast<double>(queries)};
}

/// Ranks every answer of every seed through both engines; returns the
/// number of seeds whose rankings differ in a node id or a score bit.
size_t CountDifferingSeeds(const Setup& s, const ppr::EipdEngine& full,
                           const ppr::EipdEngine& indexed) {
  size_t differing = 0;
  const size_t k = s.kg.answer_nodes.size();
  for (size_t i = 0; i < s.seeds.size(); ++i) {
    StatusOr<std::vector<ppr::ScoredAnswer>> want =
        full.Rank(s.seeds[i], s.kg.answer_nodes, k);
    StatusOr<std::vector<ppr::ScoredAnswer>> got =
        indexed.Rank(s.seeds[i], s.kg.answer_nodes, k);
    KGOV_CHECK(want.ok() && got.ok());
    bool same = want->size() == got->size();
    for (size_t r = 0; same && r < want->size(); ++r) {
      same = (*want)[r].node == (*got)[r].node &&
             std::memcmp(&(*want)[r].score, &(*got)[r].score,
                         sizeof(double)) == 0;
    }
    if (!same) {
      std::fprintf(stderr, "seed %zu: answer-indexed Rank differs from the "
                   "full Rank\n", i);
      ++differing;
    }
  }
  return differing;
}

void BM_KernelServe(benchmark::State& state) {
  Setup* s = GlobalSetup();
  const ppr::EipdEngine engine =
      state.range(0) == 0
          ? ppr::EipdEngine(s->snapshot.View(), {.max_length = 5})
          : ppr::EipdEngine(s->snapshot.View(), {.max_length = 5},
                            s->kg.answer_nodes);
  ppr::PropagationWorkspace workspace;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Rank(
        s->seeds[i % s->seeds.size()], s->kg.answer_nodes, kTopK,
        &workspace));
    ++i;
  }
}
BENCHMARK(BM_KernelServe)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

struct PathStats {
  std::vector<double> qps_reps;
  std::vector<double> propagate_reps;
  double qps = 0.0;
  double qps_iqr = 0.0;
  /// Medians over the repetitions; select_us is rank_us - propagate_us.
  double rank_us = 0.0;
  double propagate_us = 0.0;
  double select_us = 0.0;

  void Add(const Window& window) {
    qps_reps.push_back(window.qps);
    propagate_reps.push_back(window.propagate_us);
  }
};

void Summarize(PathStats* p) {
  p->qps = math::Median(p->qps_reps);
  p->qps_iqr =
      math::Percentile(p->qps_reps, 75) - math::Percentile(p->qps_reps, 25);
  p->rank_us = 1e6 / p->qps;
  p->propagate_us = math::Median(p->propagate_reps);
  p->select_us = p->rank_us - p->propagate_us;
}

/// One path's JSON object (no trailing comma).
std::string PathJson(const PathStats& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"qps\": %.1f, \"qps_iqr\": %.1f, \"rank_us\": %.2f, "
                "\"propagate_us\": %.2f, \"select_us\": %.2f, "
                "\"qps_reps\": ",
                p.qps, p.qps_iqr, p.rank_us, p.propagate_us, p.select_us);
  return buf + JsonArray(p.qps_reps) + "}";
}


/// Returns false when the two engines rank some seed differently.
bool RunAndReport(const char* json_path) {
  bench::Banner("Serving path: EIPD kernel throughput",
                "kgov read path (docs/serving.md)");
  Setup* s = GlobalSetup();
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("graph: %zu nodes, %zu edges; %zu seeds; top-%zu over %zu "
              "answers; %d alternating reps of >= %.2f s per path; "
              "host_cores=%u, %s build\n",
              s->kg.graph.NumNodes(), s->kg.graph.NumEdges(),
              s->seeds.size(), kTopK, s->kg.answer_nodes.size(), kReps,
              kMinSeconds, host_cores, KGOV_BUILD_TYPE);

  ppr::EipdOptions options;
  options.max_length = 5;
  const ppr::EipdEngine full(s->snapshot.View(), options);
  Timer index_timer;
  const auto answer_index =
      std::make_shared<const ppr::internal::TargetSlots>(
          ppr::internal::BuildTargetSlots(s->snapshot.View(),
                                          s->kg.answer_nodes));
  const double index_ms = index_timer.ElapsedSeconds() * 1e3;
  const ppr::EipdEngine indexed(s->snapshot.View(), options, answer_index);

  const size_t differing = CountDifferingSeeds(*s, full, indexed);
  std::printf("equivalence: %zu of %zu seeds differ (node ids and score "
              "bits of every answer)\n",
              differing, s->seeds.size());

  ppr::PropagationWorkspace workspace;
  PathStats full_stats;
  PathStats indexed_stats;
  std::vector<double> speedups;
  for (int rep = 0; rep < kReps; ++rep) {
    const Window full_window =
        MeasureWindow(*s, [&](const ppr::QuerySeed& seed) {
          return full.Rank(seed, s->kg.answer_nodes, kTopK, &workspace);
        });
    const Window indexed_window =
        MeasureWindow(*s, [&](const ppr::QuerySeed& seed) {
          return indexed.Rank(seed, s->kg.answer_nodes, kTopK, &workspace);
        });
    full_stats.Add(full_window);
    indexed_stats.Add(indexed_window);
    speedups.push_back(indexed_window.qps / full_window.qps);
  }
  Summarize(&full_stats);
  Summarize(&indexed_stats);
  const double speedup = math::Median(speedups);

  bench::TablePrinter table({"path", "queries/sec", "IQR", "us/query",
                             "propagate", "select"},
                            {28, 12, 10, 10, 10, 8});
  table.PrintHeader();
  for (const auto& [name, stats] :
       {std::pair<const char*, const PathStats*>{"EipdEngine::Rank (full)",
                                                 &full_stats},
        {"EipdEngine::Rank (indexed)", &indexed_stats}}) {
    table.PrintRow({name, bench::Num(stats->qps, 1),
                    bench::Num(stats->qps_iqr, 1),
                    bench::Num(stats->rank_us, 2),
                    bench::Num(stats->propagate_us, 2),
                    bench::Num(stats->select_us, 2)});
  }
  std::printf("answer-indexed over full: %.3fx (median of %d pairs); "
              "index build %.3f ms\n",
              speedup, kReps, index_ms);

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return differing == 0;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"serving_path\",\n"
      "  \"host_cores\": %u,\n"
      "  \"build_type\": \"%s\",\n"
      "  \"nodes\": %zu,\n"
      "  \"edges\": %zu,\n"
      "  \"answers\": %zu,\n"
      "  \"seeds\": %zu,\n"
      "  \"top_k\": %zu,\n"
      "  \"max_length\": %d,\n"
      "  \"reps\": %d,\n"
      "  \"min_seconds\": %.3f,\n"
      "  \"differing_seeds\": %zu,\n"
      "  \"answer_index_ms\": %.4f,\n"
      "  \"full\": %s,\n"
      "  \"answer_indexed\": %s,\n"
      "  \"speedup\": %.3f\n"
      "}\n",
      host_cores, KGOV_BUILD_TYPE, s->kg.graph.NumNodes(),
      s->kg.graph.NumEdges(), s->kg.answer_nodes.size(), s->seeds.size(),
      kTopK, options.max_length, kReps, kMinSeconds, differing, index_ms,
      PathJson(full_stats).c_str(), PathJson(indexed_stats).c_str(),
      speedup);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return differing == 0;
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) {
  const char* json_path = "BENCH_serving.json";
  const char* telemetry_path = "BENCH_serving_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::string(argv[i]) == "--telemetry-json" && i + 1 < argc) {
      telemetry_path = argv[i + 1];
    }
  }
  if (!kgov::RunAndReport(json_path)) {
    std::fprintf(stderr, "FAIL: the answer-indexed Rank differs from the "
                 "full Rank\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Every engine query above fed the serving.eipd.* metrics; dump them so
  // CI can validate the snapshot shape alongside the throughput numbers.
  kgov::bench::DumpTelemetry(telemetry_path);
  return 0;
}
