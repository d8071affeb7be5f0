// Streaming feedback pipeline benchmark: sustained vote ingestion through
// stream::StreamPipeline while serve::QueryEngine answers queries
// concurrently. The background consumer folds micro-batches while a
// serving thread replays the query stream. Reports acknowledged votes/sec
// (Offer wall-clock, backpressure included) and the concurrent serving
// latency distribution (p50/p99 measured per query, not modeled).
//
// Writes BENCH_streaming.json + a telemetry snapshot with the stream.*
// counters populated. --smoke shrinks the workload for CI.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/online_optimizer.h"
#include "serve/query_engine.h"
#include "stream/pipeline.h"

namespace kgov {
namespace {

/// A synthetic KG of K entity communities (documents about unrelated
/// topics), each with its own answer nodes, query seeds and votes.
struct Workload {
  graph::WeightedDigraph graph;
  size_t num_entities = 0;
  size_t num_communities = 0;
  std::vector<graph::NodeId> answers;     // global candidate universe
  std::vector<ppr::QuerySeed> seeds;      // replayed as serving load
  std::vector<votes::Vote> votes;         // one community per vote
};

Workload MakeWorkload(bool smoke) {
  Rng rng(4242);
  const size_t kCommunities = smoke ? 12 : 24;
  const size_t kEntitiesPer = 50;
  const size_t kAnswersPer = 4;
  const size_t kSeedsPer = 2;

  Workload w;
  w.num_communities = kCommunities;
  w.num_entities = kCommunities * kEntitiesPer;
  w.graph = graph::WeightedDigraph(w.num_entities +
                                   kCommunities * kAnswersPer);

  // answer_sources[c][j]: the entities linking into answer j of
  // community c (used to build guaranteed-encodable votes).
  std::vector<std::vector<std::vector<graph::NodeId>>> answer_sources(
      kCommunities);
  for (size_t c = 0; c < kCommunities; ++c) {
    const graph::NodeId base = static_cast<graph::NodeId>(c * kEntitiesPer);
    auto community_entity = [&] {
      return base + static_cast<graph::NodeId>(rng.NextIndex(kEntitiesPer));
    };
    // Entity-entity edges within the community (~3 per node).
    for (size_t i = 0; i < kEntitiesPer; ++i) {
      const graph::NodeId from = base + static_cast<graph::NodeId>(i);
      for (int k = 0; k < 3; ++k) {
        graph::NodeId to = community_entity();
        if (to == from) continue;
        (void)w.graph.AddEdge(from, to, rng.Uniform(0.1, 1.0));
      }
    }
    // Answer nodes with incoming links from community entities.
    answer_sources[c].resize(kAnswersPer);
    for (size_t j = 0; j < kAnswersPer; ++j) {
      const graph::NodeId answer = static_cast<graph::NodeId>(
          w.num_entities + c * kAnswersPer + j);
      w.answers.push_back(answer);
      for (int k = 0; k < 3; ++k) {
        graph::NodeId entity = community_entity();
        if (w.graph.AddEdge(entity, answer, rng.Uniform(0.2, 1.0)).ok()) {
          answer_sources[c][j].push_back(entity);
        }
      }
    }
    // Query seeds served against this community.
    for (size_t s = 0; s < kSeedsPer; ++s) {
      ppr::QuerySeed seed;
      seed.links.emplace_back(community_entity(), rng.Uniform(0.5, 1.0));
      seed.links.emplace_back(community_entity(), rng.Uniform(0.5, 1.0));
      seed.Normalize();
      w.seeds.push_back(std::move(seed));
    }
    // Votes: promote each answer in turn, seeded at a random community
    // entity (within propagation reach of the whole community).
    for (size_t j = 0; j < kAnswersPer; ++j) {
      if (answer_sources[c][j].empty()) continue;
      votes::Vote vote;
      vote.id = static_cast<uint32_t>(w.votes.size());
      vote.query.links.emplace_back(community_entity(), 1.0);
      for (size_t a = 0; a < kAnswersPer; ++a) {
        vote.answer_list.push_back(static_cast<graph::NodeId>(
            w.num_entities + c * kAnswersPer + a));
      }
      vote.best_answer = static_cast<graph::NodeId>(
          w.num_entities + c * kAnswersPer + j);
      w.votes.push_back(std::move(vote));
    }
  }
  w.graph.NormalizeAllOutWeights();
  return w;
}

core::OnlineOptimizerOptions StreamingOptions(const Workload& w) {
  core::OnlineOptimizerOptions options;
  options.batch_size = 1 << 20;  // the pipeline owns the flush cadence
  options.strategy = core::FlushStrategy::kMultiVote;
  options.optimizer.encoder.symbolic.eipd.max_length = 4;
  options.optimizer.encoder.is_variable =
      [ne = w.num_entities](const graph::WeightedDigraph& g,
                            graph::EdgeId e) {
        return g.edges()[e].from < ne && g.edges()[e].to < ne;
      };
  options.optimizer.apply_judgment_filter = false;
  return options;
}

serve::QueryEngineOptions EngineOptions() {
  serve::QueryEngineOptions options;
  options.eipd.max_length = 4;
  options.top_k = 10;
  options.num_threads = 2;
  return options;
}

votes::Vote NumberedVote(const Workload& w, size_t i) {
  votes::Vote vote = w.votes[i % w.votes.size()];
  vote.id = static_cast<uint32_t>(1000 + i);
  return vote;
}

struct IngestResult {
  size_t votes_offered = 0;
  double votes_per_sec = 0.0;
  uint64_t micro_batches = 0;
  uint64_t epochs_published = 0;
  size_t queries_served = 0;
  double serving_p50_ms = 0.0;
  double serving_p99_ms = 0.0;
};

/// Background consumer + one serving thread, both running until every
/// offered vote has been acknowledged.
IngestResult RunSustainedIngest(const Workload& w, bool smoke) {
  core::OnlineKgOptimizer online(w.graph, StreamingOptions(w));
  stream::StreamPipelineOptions pipeline_options;
  pipeline_options.micro_batch_size = 8;
  auto pipeline_or =
      stream::StreamPipeline::Create(&online, pipeline_options, nullptr);
  KGOV_CHECK(pipeline_or.ok());
  stream::StreamPipeline& pipeline = **pipeline_or;

  auto engine_or =
      serve::QueryEngine::Create(&online, &w.answers, EngineOptions());
  KGOV_CHECK(engine_or.ok());
  serve::QueryEngine& engine = **engine_or;

  KGOV_CHECK(pipeline.Start().ok());

  std::atomic<bool> done{false};
  std::vector<double> latencies_ms;
  std::thread server([&] {
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      Timer timer;
      StatusOr<serve::RankedAnswers> r =
          engine.Submit(w.seeds[i++ % w.seeds.size()]);
      KGOV_CHECK(r.ok());
      latencies_ms.push_back(timer.ElapsedSeconds() * 1e3);
    }
  });

  const size_t kVotes = smoke ? 64 : 384;
  Timer ingest_timer;
  for (size_t i = 0; i < kVotes; ++i) {
    KGOV_CHECK(pipeline.Offer(NumberedVote(w, i)).ok());
  }
  KGOV_CHECK(pipeline.Stop().ok());  // drains the final micro-batches
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  server.join();

  IngestResult result;
  result.votes_offered = kVotes;
  result.votes_per_sec = static_cast<double>(kVotes) / ingest_seconds;
  stream::StreamPipeline::Stats stats = pipeline.GetStats();
  result.micro_batches = stats.micro_batches;
  result.epochs_published = stats.epochs_published;
  result.queries_served = latencies_ms.size();
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    result.serving_p50_ms = latencies_ms[latencies_ms.size() / 2];
    result.serving_p99_ms =
        latencies_ms[latencies_ms.size() * 99 / 100];
  }
  return result;
}

void RunAndReport(bool smoke, const char* json_path,
                  const char* telemetry_path) {
  bench::Banner(
      "Streaming pipeline: sustained ingest with concurrent serving",
      "kgov streaming subsystem (docs/streaming.md)");

  Workload w = MakeWorkload(smoke);
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("graph: %zu nodes, %zu edges; %zu votes, %zu query seeds; "
              "host_cores=%u%s\n",
              w.graph.NumNodes(), w.graph.NumEdges(),
              w.votes.size(), w.seeds.size(), host_cores,
              smoke ? " [smoke]" : "");

  IngestResult ingest = RunSustainedIngest(w, smoke);
  std::printf(
      "sustained ingest: %zu votes acknowledged at %.1f votes/sec "
      "(%" PRIu64 " micro-batches, %" PRIu64 " epochs)\n",
      ingest.votes_offered, ingest.votes_per_sec, ingest.micro_batches,
      ingest.epochs_published);
  std::printf(
      "concurrent serving: %zu queries, p50 %.4f ms, p99 %.4f ms\n",
      ingest.queries_served, ingest.serving_p50_ms, ingest.serving_p99_ms);

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"streaming\",\n"
               "  \"smoke\": %s,\n"
               "  \"host_cores\": %u,\n"
               "  \"nodes\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"ingest\": {\n"
               "    \"votes_offered\": %zu,\n"
               "    \"votes_per_sec\": %.2f,\n"
               "    \"micro_batches\": %" PRIu64 ",\n"
               "    \"epochs_published\": %" PRIu64 ",\n"
               "    \"queries_served\": %zu,\n"
               "    \"serving_p50_ms\": %.6f,\n"
               "    \"serving_p99_ms\": %.6f\n"
               "  }\n"
               "}\n",
               smoke ? "true" : "false", host_cores,
               w.graph.NumNodes(), w.graph.NumEdges(),
               ingest.votes_offered, ingest.votes_per_sec,
               ingest.micro_batches, ingest.epochs_published,
               ingest.queries_served, ingest.serving_p50_ms,
               ingest.serving_p99_ms);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  bench::DumpTelemetry(telemetry_path);
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_streaming.json";
  const char* telemetry_path = "BENCH_streaming_telemetry.json";
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
