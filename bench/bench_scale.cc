// Million-node scale sweep of the EIPD kernel.
//
// Generates streaming scale-free graphs at |V| in {4096, 62586, 1e5, 1e6}
// (the first two match the toy and Gnutella scales of the existing
// benches) and measures per-query latency of EipdEngine::Rank (one
// propagation plus top-k) through one reused, warmed workspace, on an
// engine whose answer set is the candidates, as serve::QueryEngine serves.
// The kernel's cost is O(touched nodes + traversed edges), so with sparse
// seeds the latency should grow far slower than |V| (docs/scale.md). The
// answer index is what serving pays for that once per serve::QueryEngine
// (every epoch it pins shares it, in O(1)): one O(|V| + |E|) pass,
// recorded as answer_index_ms (median of kIndexBuilds engine builds).
//
// Flags:
//   --smoke      reduced sizes/query counts for CI (see tools/ci/check.sh)
//   --json PATH  machine-readable results (committed as BENCH_scale.json)

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "graph/source.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"

namespace kgov {
namespace {

struct LatencyStats {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

LatencyStats Summarize(std::vector<double>& samples_ms) {
  LatencyStats stats;
  if (samples_ms.empty()) return stats;
  double total = 0.0;
  for (double s : samples_ms) total += s;
  stats.mean_ms = total / static_cast<double>(samples_ms.size());
  std::sort(samples_ms.begin(), samples_ms.end());
  stats.p50_ms = samples_ms[samples_ms.size() / 2];
  stats.p99_ms = samples_ms[std::min(samples_ms.size() - 1,
                                     samples_ms.size() * 99 / 100)];
  return stats;
}

struct SizeResult {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  double gen_seconds = 0.0;
  double answer_index_ms = 0.0;
  size_t queries = 0;
  LatencyStats rank;
};

constexpr int kIndexBuilds = 5;

/// One propagation + rank per sample through the given engine. An untimed
/// pass over the seeds comes first, so the timed pass sees a sized
/// workspace and warm graph rows, as a serving worker does.
LatencyStats RunKernel(const ppr::EipdEngine& engine,
                       const std::vector<ppr::QuerySeed>& seeds,
                       const std::vector<graph::NodeId>& candidates) {
  ppr::PropagationWorkspace ws;
  for (const ppr::QuerySeed& seed : seeds) {
    if (!engine.Rank(seed, candidates, 10, &ws).ok()) break;
  }
  std::vector<double> samples_ms;
  samples_ms.reserve(seeds.size());
  for (const ppr::QuerySeed& seed : seeds) {
    Timer timer;
    StatusOr<std::vector<ppr::ScoredAnswer>> ranked =
        engine.Rank(seed, candidates, 10, &ws);
    double ms = timer.ElapsedSeconds() * 1e3;
    if (!ranked.ok()) {
      std::fprintf(stderr, "rank failed: %s\n",
                   ranked.status().ToString().c_str());
      continue;
    }
    samples_ms.push_back(ms);
  }
  return Summarize(samples_ms);
}

StatusOr<SizeResult> RunSize(size_t num_nodes, size_t queries,
                             uint64_t seed) {
  SizeResult result;
  result.num_nodes = num_nodes;
  result.queries = queries;

  graph::GeneratorSpec spec;
  spec.kind = graph::GeneratorKind::kStreamingScaleFree;
  spec.num_nodes = num_nodes;
  spec.edges_per_node = 4;
  Timer gen_timer;
  KGOV_ASSIGN_OR_RETURN(
      graph::WeightedDigraph g,
      graph::LoadGraph(graph::GraphSource::Generator(spec, seed)));
  result.gen_seconds = gen_timer.ElapsedSeconds();
  result.num_edges = g.NumEdges();

  // Workload: node-seeded queries against a fixed candidate set, the
  // serving path's shape. Workload stream is separate from the
  // generator's.
  Rng rng(seed + 1000);
  std::vector<ppr::QuerySeed> seeds;
  while (seeds.size() < queries) {
    ppr::QuerySeed q = ppr::QuerySeed::FromNode(
        g, static_cast<graph::NodeId>(rng.NextIndex(num_nodes)));
    if (!q.empty()) seeds.push_back(std::move(q));
  }
  std::vector<graph::NodeId> candidates;
  for (size_t i = 0; i < 64; ++i) {
    candidates.push_back(
        static_cast<graph::NodeId>(rng.NextIndex(num_nodes)));
  }

  graph::CsrSnapshot snapshot(g);
  std::vector<double> build_ms;
  for (int i = 0; i < kIndexBuilds; ++i) {
    Timer timer;
    ppr::EipdEngine built(snapshot.View(), {}, candidates);
    build_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  std::sort(build_ms.begin(), build_ms.end());
  result.answer_index_ms = build_ms[build_ms.size() / 2];
  ppr::EipdEngine engine(snapshot.View(), {}, candidates);
  result.rank = RunKernel(engine, seeds, candidates);
  return result;
}

double MaxRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void WriteJson(const std::string& path, const std::vector<SizeResult>& rows,
               bool smoke) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_scale\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"max_rss_mb\": %.1f,\n", MaxRssMb());
  std::fprintf(f, "  \"sizes\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SizeResult& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"num_nodes\": %zu,\n", r.num_nodes);
    std::fprintf(f, "      \"num_edges\": %zu,\n", r.num_edges);
    std::fprintf(f, "      \"gen_seconds\": %.4f,\n", r.gen_seconds);
    std::fprintf(f, "      \"answer_index_ms\": %.4f,\n", r.answer_index_ms);
    std::fprintf(f, "      \"queries\": %zu,\n", r.queries);
    std::fprintf(f,
                 "      \"rank\": {\"mean_ms\": %.4f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f}\n",
                 r.rank.mean_ms, r.rank.p50_ms, r.rank.p99_ms);
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("results -> %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::Banner("Scale sweep: EIPD kernel latency by graph size",
                "million-node serving (docs/scale.md)");

  struct SizeSpec {
    size_t num_nodes;
    size_t queries;
  };
  std::vector<SizeSpec> sweep;
  if (smoke) {
    sweep = {{4096, 40}, {100000, 15}, {1000000, 5}};
  } else {
    sweep = {{4096, 200}, {62586, 100}, {100000, 100}, {1000000, 30}};
  }

  bench::TablePrinter table({"|V|", "|E|", "gen", "index ms", "queries",
                             "mean ms", "p50 ms", "p99 ms"},
                            {9, 9, 7, 9, 8, 9, 9, 9});
  table.PrintHeader();

  std::vector<SizeResult> rows;
  for (const SizeSpec& spec : sweep) {
    StatusOr<SizeResult> r = RunSize(spec.num_nodes, spec.queries, 4242);
    if (!r.ok()) {
      std::fprintf(stderr, "size %zu failed: %s\n", spec.num_nodes,
                   r.status().ToString().c_str());
      return 1;
    }
    const SizeResult& row = *r;
    table.PrintRow({std::to_string(row.num_nodes),
                    std::to_string(row.num_edges),
                    bench::Num(row.gen_seconds, 2) + "s",
                    bench::Num(row.answer_index_ms, 3),
                    std::to_string(row.queries),
                    bench::Num(row.rank.mean_ms, 3),
                    bench::Num(row.rank.p50_ms, 3),
                    bench::Num(row.rank.p99_ms, 3)});
    rows.push_back(row);
  }

  std::printf("\npeak RSS %.1f MB\n", MaxRssMb());
  std::printf(
      "Expected: p50 grows far slower than |V| - a sparse seed touches a\n"
      "small part of the graph, and the workspace reset is O(touched).\n");

  if (!json_path.empty()) WriteJson(json_path, rows, smoke);
  return 0;
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) { return kgov::Run(argc, argv); }
