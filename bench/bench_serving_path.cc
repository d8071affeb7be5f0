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
// path and the median-of-pairs speedup.
//
// Writes BENCH_serving.json so CI can track the serving-path trajectory
// (tools/ci/check.sh runs this from the repo root). How the kernel scales
// to million-node graphs is bench_scale's job (BENCH_scale.json).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "math/stats.h"
#include "ppr/eipd_engine.h"
#include "qa/kg_builder.h"

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

/// Runs `fn(seed)` over every seed, round after round, for at least
/// kMinSeconds; returns queries/sec.
template <typename Fn>
double MeasureQps(const Setup& s, Fn&& fn) {
  size_t queries = 0;
  Timer timer;
  do {
    for (const ppr::QuerySeed& seed : s.seeds) {
      benchmark::DoNotOptimize(fn(seed));
    }
    queries += s.seeds.size();
  } while (timer.ElapsedSeconds() < kMinSeconds);
  return static_cast<double>(queries) / timer.ElapsedSeconds();
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

struct PathStats {
  std::vector<double> qps_reps;
  double qps = 0.0;
  double qps_iqr = 0.0;
};

void Summarize(PathStats* p) {
  p->qps = math::Median(p->qps_reps);
  p->qps_iqr =
      math::Percentile(p->qps_reps, 75) - math::Percentile(p->qps_reps, 25);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
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
  const ppr::EipdEngine indexed(s->snapshot.View(), options,
                                s->kg.answer_nodes);
  const double index_ms = index_timer.ElapsedSeconds() * 1e3;

  const size_t differing = CountDifferingSeeds(*s, full, indexed);
  std::printf("equivalence: %zu of %zu seeds differ (node ids and score "
              "bits of every answer)\n",
              differing, s->seeds.size());

  ppr::PropagationWorkspace workspace;
  PathStats full_stats;
  PathStats indexed_stats;
  std::vector<double> speedups;
  for (int rep = 0; rep < kReps; ++rep) {
    const double full_qps = MeasureQps(*s, [&](const ppr::QuerySeed& seed) {
      return full.Rank(seed, s->kg.answer_nodes, kTopK, &workspace);
    });
    const double indexed_qps =
        MeasureQps(*s, [&](const ppr::QuerySeed& seed) {
          return indexed.Rank(seed, s->kg.answer_nodes, kTopK, &workspace);
        });
    full_stats.qps_reps.push_back(full_qps);
    indexed_stats.qps_reps.push_back(indexed_qps);
    speedups.push_back(indexed_qps / full_qps);
  }
  Summarize(&full_stats);
  Summarize(&indexed_stats);
  const double speedup = math::Median(speedups);

  bench::TablePrinter table({"path", "queries/sec", "IQR", "us/query"},
                            {28, 12, 10, 10});
  table.PrintHeader();
  table.PrintRow({"EipdEngine::Rank (full)", bench::Num(full_stats.qps, 1),
                  bench::Num(full_stats.qps_iqr, 1),
                  bench::Num(1e6 / full_stats.qps, 2)});
  table.PrintRow({"EipdEngine::Rank (indexed)",
                  bench::Num(indexed_stats.qps, 1),
                  bench::Num(indexed_stats.qps_iqr, 1),
                  bench::Num(1e6 / indexed_stats.qps, 2)});
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
      "  \"full\": {\"qps\": %.1f, \"qps_iqr\": %.1f, \"qps_reps\": %s},\n"
      "  \"answer_indexed\": {\"qps\": %.1f, \"qps_iqr\": %.1f, "
      "\"qps_reps\": %s},\n"
      "  \"speedup\": %.3f\n"
      "}\n",
      host_cores, KGOV_BUILD_TYPE, s->kg.graph.NumNodes(),
      s->kg.graph.NumEdges(), s->kg.answer_nodes.size(), s->seeds.size(),
      kTopK, options.max_length, kReps, kMinSeconds, differing, index_ms,
      full_stats.qps, full_stats.qps_iqr,
      JsonArray(full_stats.qps_reps).c_str(), indexed_stats.qps,
      indexed_stats.qps_iqr, JsonArray(indexed_stats.qps_reps).c_str(),
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
