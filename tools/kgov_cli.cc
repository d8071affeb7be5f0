// kgov_cli: command-line front end for the kgov library.
//
// Workflow:
//   kgov_cli gen-corpus    --out corpus.txt [--entities N --topics T
//                          --docs D --seed S]
//   kgov_cli gen-questions --corpus corpus.txt --out questions.txt
//                          [--count N --seed S]
//   kgov_cli build-kg      --corpus corpus.txt --out graph.edges
//   kgov_cli ask           --corpus corpus.txt --graph graph.edges
//                          --question "12:2 45:1" [--topk K]
//   kgov_cli eval          --corpus corpus.txt --graph graph.edges
//                          --questions questions.txt
//   kgov_cli collect-votes --corpus corpus.txt --graph graph.edges
//                          --questions questions.txt --out votes.txt
//                          [--topk K]
//   kgov_cli optimize      --corpus corpus.txt --graph graph.edges
//                          --votes votes.txt --out optimized.edges
//                          [--strategy single|multi|sm]
//   kgov_cli snapshot      --graph graph.edges --dir durable/
//                          [--votes votes.txt --epoch N]
//   kgov_cli recover       --dir durable/ [--out recovered.edges]
//
// The graph file carries a "# kgov-kg entities=N documents=M" header so
// later commands can reconstruct the node layout. snapshot/recover bridge
// the text interchange format and the binary durability format
// (docs/durability.md): snapshot freezes a graph (plus optional pending
// votes) into a checksummed binary snapshot, recover replays a durability
// directory back into a servable graph.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/kg_optimizer.h"
#include "core/scoring.h"
#include "durability/manager.h"
#include "durability/snapshot.h"
#include "graph/csr.h"
#include "graph/graph_io.h"
#include "graph/source.h"
#include "graph/stats.h"
#include "qa/baselines.h"
#include "qa/corpus_io.h"
#include "qa/kg_builder.h"
#include "qa/metrics.h"
#include "qa/qa_system.h"
#include "telemetry/metrics.h"
#include "votes/aggregate.h"
#include "votes/conflict.h"
#include "votes/votes_io.h"

namespace kgov {
namespace {

// ------------------------------ flag parsing ------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        extra_.push_back(key);
        continue;
      }
      // Both spellings are accepted: "--key=value" and "--key value".
      size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(2, eq - 2)] = key.substr(eq + 1);
      } else if (i + 1 < argc) {
        values_[key.substr(2)] = argv[++i];
      } else {
        extra_.push_back(key);
      }
    }
  }

  std::optional<std::string> Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string GetOr(const std::string& key, std::string fallback) const {
    return Get(key).value_or(std::move(fallback));
  }

  long long GetInt(const std::string& key, long long fallback) const {
    auto v = Get(key);
    return v ? std::stoll(*v) : fallback;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto v = Get(key);
    return v ? std::stod(*v) : fallback;
  }

  /// Fails with a message when a required flag is missing.
  Result<std::string> Require(const std::string& key) const {
    auto v = Get(key);
    if (!v) return Status::InvalidArgument("missing required --" + key);
    return *v;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> extra_;
};

// ------------------------ graph header round trip ------------------------

Status SaveKgGraph(const qa::KnowledgeGraph& kg, const std::string& path) {
  KGOV_RETURN_IF_ERROR(graph::SaveEdgeList(kg.graph, path));
  // Prepend the layout header by rewriting (files are small experiment
  // artifacts; simplicity wins over streaming).
  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot rewrite " + path);
  out << "# kgov-kg entities=" << kg.num_entities
      << " documents=" << kg.answer_nodes.size() << "\n"
      << body;
  out.flush();
  if (!out.good()) return Status::IoError("write failure on " + path);
  return Status::OK();
}

Result<qa::KnowledgeGraph> LoadKgGraph(const std::string& path) {
  // Parse the layout header.
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::string header;
  std::getline(in, header);
  in.close();
  size_t entities = 0, documents = 0;
  if (std::sscanf(header.c_str(), "# kgov-kg entities=%zu documents=%zu",
                  &entities, &documents) != 2) {
    return Status::IoError(path + " lacks a kgov-kg header");
  }
  KGOV_ASSIGN_OR_RETURN(graph::WeightedDigraph g,
                        graph::LoadGraph(graph::GraphSource::EdgeList(path)));
  qa::KnowledgeGraph kg;
  // The loader sizes to max referenced id; isolated trailing answers need
  // explicit nodes.
  while (g.NumNodes() < entities + documents) g.AddNode();
  kg.graph = std::move(g);
  kg.num_entities = entities;
  for (size_t d = 0; d < documents; ++d) {
    kg.answer_nodes.push_back(static_cast<graph::NodeId>(entities + d));
  }
  return kg;
}

Result<qa::Question> ParseInlineQuestion(const std::string& text) {
  qa::Question q;
  for (const std::string& token : SplitString(text, " ,")) {
    size_t colon = token.find(':');
    qa::EntityMention m;
    m.entity = static_cast<qa::EntityId>(
        std::stoul(token.substr(0, colon)));
    m.count = colon == std::string::npos
                  ? 1
                  : std::stoi(token.substr(colon + 1));
    q.mentions.push_back(m);
  }
  if (q.mentions.empty()) {
    return Status::InvalidArgument("empty --question");
  }
  return q;
}

// ------------------------------- commands --------------------------------

Status CmdGenCorpus(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  qa::CorpusParams params = qa::TaobaoScaleParams();
  params.num_entities =
      static_cast<size_t>(flags.GetInt("entities", 400));
  params.num_topics = static_cast<size_t>(flags.GetInt("topics", 40));
  params.num_documents = static_cast<size_t>(flags.GetInt("docs", 500));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  KGOV_ASSIGN_OR_RETURN(qa::Corpus corpus,
                        qa::GenerateCorpus(params, rng));
  KGOV_RETURN_IF_ERROR(qa::SaveCorpus(corpus, out));
  std::printf("wrote %zu documents over %zu entities to %s\n",
              corpus.documents.size(), corpus.num_entities, out.c_str());
  return Status::OK();
}

Status CmdGenQuestions(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string corpus_path, flags.Require("corpus"));
  KGOV_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  KGOV_ASSIGN_OR_RETURN(qa::Corpus corpus, qa::LoadCorpus(corpus_path));
  qa::CorpusParams params = qa::TaobaoScaleParams();
  params.num_topics = 0;  // topic layout only matters for generation
  // Reconstruct enough layout for question generation.
  params.num_entities = corpus.num_entities;
  int max_topic = 0;
  for (const qa::Document& d : corpus.documents) {
    max_topic = std::max(max_topic, d.topic);
  }
  params.num_topics = static_cast<size_t>(max_topic) + 1;
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 2)));
  std::vector<qa::Question> questions = qa::GenerateQuestions(
      corpus, static_cast<size_t>(flags.GetInt("count", 100)), params, rng);
  KGOV_RETURN_IF_ERROR(qa::SaveQuestions(questions, out));
  std::printf("wrote %zu questions to %s\n", questions.size(), out.c_str());
  return Status::OK();
}

Status CmdBuildKg(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string corpus_path, flags.Require("corpus"));
  KGOV_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  KGOV_ASSIGN_OR_RETURN(qa::Corpus corpus, qa::LoadCorpus(corpus_path));
  KGOV_ASSIGN_OR_RETURN(qa::KnowledgeGraph kg,
                        qa::BuildKnowledgeGraph(corpus));
  KGOV_RETURN_IF_ERROR(SaveKgGraph(kg, out));
  std::printf("built KG: %zu nodes, %zu edges -> %s\n",
              kg.graph.NumNodes(), kg.graph.NumEdges(), out.c_str());
  return Status::OK();
}

Status CmdAsk(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string graph_path, flags.Require("graph"));
  KGOV_ASSIGN_OR_RETURN(std::string question_text,
                        flags.Require("question"));
  KGOV_ASSIGN_OR_RETURN(qa::KnowledgeGraph kg, LoadKgGraph(graph_path));
  KGOV_ASSIGN_OR_RETURN(qa::Question question,
                        ParseInlineQuestion(question_text));
  qa::QaOptions options;
  options.top_k = static_cast<size_t>(flags.GetInt("topk", 10));
  qa::QaSystem system(&kg.graph, &kg.answer_nodes, kg.num_entities,
                      options);
  KGOV_ASSIGN_OR_RETURN(std::vector<qa::RankedDocument> docs,
                        system.Answer(question));
  for (size_t i = 0; i < docs.size(); ++i) {
    std::printf("%2zu. doc %-6d score %.6f\n", i + 1, docs[i].document,
                docs[i].score);
  }
  return Status::OK();
}

Status CmdEval(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string graph_path, flags.Require("graph"));
  KGOV_ASSIGN_OR_RETURN(std::string questions_path,
                        flags.Require("questions"));
  KGOV_ASSIGN_OR_RETURN(qa::KnowledgeGraph kg, LoadKgGraph(graph_path));
  KGOV_ASSIGN_OR_RETURN(std::vector<qa::Question> questions,
                        qa::LoadQuestions(questions_path));
  qa::QaOptions options;
  options.top_k = static_cast<size_t>(flags.GetInt("topk", 20));
  qa::QaSystem system(&kg.graph, &kg.answer_nodes, kg.num_entities,
                      options);
  std::vector<std::vector<qa::RankedDocument>> rankings;
  for (const qa::Question& q : questions) {
    rankings.push_back(system.Answer(q).value_or({}));
  }
  qa::RankingMetrics m = qa::EvaluateRankings(questions, rankings);
  std::printf("questions %zu  H@1 %.3f  H@3 %.3f  H@5 %.3f  H@10 %.3f  "
              "MRR %.3f  MAP %.3f  Ravg %.2f\n",
              m.num_questions, m.hits_at[0], m.hits_at[1], m.hits_at[2],
              m.hits_at[3], m.mrr, m.map, m.average_rank);
  return Status::OK();
}

Status CmdCollectVotes(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string graph_path, flags.Require("graph"));
  KGOV_ASSIGN_OR_RETURN(std::string questions_path,
                        flags.Require("questions"));
  KGOV_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  KGOV_ASSIGN_OR_RETURN(qa::KnowledgeGraph kg, LoadKgGraph(graph_path));
  KGOV_ASSIGN_OR_RETURN(std::vector<qa::Question> questions,
                        qa::LoadQuestions(questions_path));
  qa::QaOptions options;
  options.top_k = static_cast<size_t>(flags.GetInt("topk", 10));
  qa::QaSystem system(&kg.graph, &kg.answer_nodes, kg.num_entities,
                      options);

  // Votes from labels: the question's expert best document plays the user.
  std::vector<votes::Vote> collected;
  uint32_t id = 0;
  for (const qa::Question& q : questions) {
    if (q.best_document < 0) continue;
    std::vector<qa::RankedDocument> shown = system.Answer(q).value_or({});
    while (!shown.empty() && shown.back().score <= 0.0) shown.pop_back();
    if (shown.size() < 2) continue;
    bool label_shown = false;
    for (const qa::RankedDocument& rd : shown) {
      if (rd.document == q.best_document) label_shown = true;
    }
    if (!label_shown) continue;
    votes::Vote vote;
    vote.id = id++;
    vote.query = qa::LinkQuestion(q, kg.num_entities);
    for (const qa::RankedDocument& rd : shown) {
      vote.answer_list.push_back(kg.answer_nodes[rd.document]);
    }
    vote.best_answer = kg.answer_nodes[q.best_document];
    collected.push_back(std::move(vote));
  }
  KGOV_RETURN_IF_ERROR(votes::SaveVotes(collected, out));
  std::printf("collected %zu votes from %zu questions -> %s\n",
              collected.size(), questions.size(), out.c_str());
  return Status::OK();
}

Status CmdOptimize(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string graph_path, flags.Require("graph"));
  KGOV_ASSIGN_OR_RETURN(std::string votes_path, flags.Require("votes"));
  KGOV_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  KGOV_ASSIGN_OR_RETURN(qa::KnowledgeGraph kg, LoadKgGraph(graph_path));
  KGOV_ASSIGN_OR_RETURN(std::vector<votes::Vote> vote_set,
                        votes::LoadVotes(votes_path));
  if (flags.GetInt("aggregate", 1) != 0) {
    size_t before = vote_set.size();
    vote_set = votes::AggregateVotes(vote_set);
    if (vote_set.size() < before) {
      std::printf("aggregated %zu votes into %zu weighted votes\n", before,
                  vote_set.size());
    }
  }

  core::OptimizerOptions options;
  options.encoder.symbolic.eipd.max_length =
      static_cast<int>(flags.GetInt("length", 5));
  options.encoder.is_variable = kg.EntityEdgePredicate();
  options.sgp.lambda1 = flags.GetDouble("lambda1", 1.0);
  options.sgp.lambda2 = flags.GetDouble("lambda2", 0.5);

  core::KgOptimizer optimizer(&kg.graph, options);
  std::string strategy = flags.GetOr("strategy", "multi");
  Result<core::OptimizeReport> report =
      strategy == "single" ? optimizer.SingleVoteSolve(vote_set)
      : strategy == "sm"   ? optimizer.SplitMergeSolve(vote_set)
                           : optimizer.MultiVoteSolve(vote_set);
  KGOV_RETURN_IF_ERROR(report.status());

  qa::KnowledgeGraph optimized = kg;
  optimized.graph = report->optimized;
  KGOV_RETURN_IF_ERROR(SaveKgGraph(optimized, out));

  const graph::CsrSnapshot optimized_snapshot(report->optimized);
  core::OmegaResult omega = core::EvaluateOmega(
      optimized_snapshot.View(), vote_set, options.encoder.symbolic.eipd);
  std::printf("strategy=%s votes=%zu encoded=%zu satisfied=%d/%d "
              "omega_avg=%.2f -> %s\n",
              strategy.c_str(), vote_set.size(), report->votes_encoded,
              report->constraints_satisfied, report->constraints_total,
              omega.average, out.c_str());
  return Status::OK();
}

Status CmdStats(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string graph_path, flags.Require("graph"));
  KGOV_ASSIGN_OR_RETURN(qa::KnowledgeGraph kg, LoadKgGraph(graph_path));
  graph::GraphStats stats = graph::ComputeGraphStats(kg.graph);
  std::printf("%s\n", stats.ToString().c_str());
  std::printf("layout: %zu entities, %zu documents\n", kg.num_entities,
              kg.answer_nodes.size());
  return Status::OK();
}

Status CmdConflicts(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string votes_path, flags.Require("votes"));
  KGOV_ASSIGN_OR_RETURN(std::vector<votes::Vote> vote_set,
                        votes::LoadVotes(votes_path));
  votes::ConflictOptions options;
  options.min_query_overlap = flags.GetDouble("min-overlap", 0.0);
  votes::ConflictReport report =
      votes::AnalyzeConflicts(vote_set, options);
  std::printf("votes %zu  overlapping pairs %zu  conflicts %zu  "
              "conflicted votes %zu\n",
              vote_set.size(), report.overlapping_pairs,
              report.conflicts.size(), report.conflicted_votes);
  size_t shown = 0;
  for (const votes::VoteConflict& c : report.conflicts) {
    if (++shown > 20) {
      std::printf("... (%zu more)\n", report.conflicts.size() - 20);
      break;
    }
    std::printf("  vote %u vs vote %u: answers %u <> %u (query overlap "
                "%.2f)\n",
                vote_set[c.vote_a].id, vote_set[c.vote_b].id, c.answer_x,
                c.answer_y, c.query_overlap);
  }
  return Status::OK();
}

Status CmdSnapshot(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string graph_path, flags.Require("graph"));
  KGOV_ASSIGN_OR_RETURN(std::string dir, flags.Require("dir"));
  KGOV_ASSIGN_OR_RETURN(qa::KnowledgeGraph kg, LoadKgGraph(graph_path));
  durability::SnapshotMeta meta;
  meta.epoch = static_cast<uint64_t>(flags.GetInt("epoch", 0));
  meta.num_entities = kg.num_entities;
  meta.num_documents = kg.answer_nodes.size();
  if (auto votes_path = flags.Get("votes")) {
    KGOV_ASSIGN_OR_RETURN(meta.pending, votes::LoadVotes(*votes_path));
  }
  KGOV_RETURN_IF_ERROR(fs::CreateDirs(dir));
  const graph::CsrSnapshot csr(kg.graph);
  const std::string path =
      dir + "/" + durability::SnapshotFileName(meta.epoch);
  KGOV_RETURN_IF_ERROR(durability::WriteSnapshot(path, csr.View(), meta));
  KGOV_ASSIGN_OR_RETURN(int64_t bytes, fs::FileSize(path));
  std::printf("snapshot: %zu nodes, %zu edges, %zu pending votes, epoch "
              "%llu -> %s (%lld bytes)\n",
              kg.graph.NumNodes(), kg.graph.NumEdges(), meta.pending.size(),
              static_cast<unsigned long long>(meta.epoch), path.c_str(),
              static_cast<long long>(bytes));
  return Status::OK();
}

Status CmdRecover(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string dir, flags.Require("dir"));
  durability::RecoverOptions options;
  options.verify_body_checksum = flags.GetInt("verify", 1) != 0;
  KGOV_ASSIGN_OR_RETURN(durability::RecoveredState state,
                        durability::Recover(dir, options));
  std::printf("recovered epoch %llu from %s\n",
              static_cast<unsigned long long>(state.epoch),
              state.snapshot_path.c_str());
  std::printf("  graph: %zu nodes, %zu edges (%llu entities, %llu "
              "documents)\n",
              state.graph.NumNodes(), state.graph.NumEdges(),
              static_cast<unsigned long long>(state.num_entities),
              static_cast<unsigned long long>(state.num_documents));
  std::printf("  votes: %zu pending, %zu dead-lettered (%zu WAL records "
              "replayed, %zu torn tails, %zu corrupt records, %zu "
              "snapshots skipped)\n",
              state.pending.size(), state.dead_letters.size(),
              state.wal_records_replayed, state.torn_tails_truncated,
              state.corrupt_records, state.snapshots_skipped);
  if (auto out = flags.Get("out")) {
    qa::KnowledgeGraph kg;
    kg.num_entities = state.num_entities;
    for (size_t d = 0; d < state.num_documents; ++d) {
      kg.answer_nodes.push_back(
          static_cast<graph::NodeId>(state.num_entities + d));
    }
    kg.graph = std::move(state.graph);
    KGOV_RETURN_IF_ERROR(SaveKgGraph(kg, *out));
    std::printf("  wrote recovered graph -> %s\n", out->c_str());
  }
  return Status::OK();
}

Status CmdGenGraph(const Flags& flags) {
  KGOV_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  graph::GraphSource source;
  if (auto profile = flags.Get("profile")) {
    source = graph::GraphSource::Profile(*profile, seed);
  } else if (auto generator = flags.Get("generator")) {
    graph::GeneratorSpec spec;
    spec.num_nodes = static_cast<size_t>(flags.GetInt("nodes", 4000));
    spec.num_edges = static_cast<size_t>(flags.GetInt("edges", 16000));
    spec.edges_per_node =
        static_cast<size_t>(flags.GetInt("per-node", 4));
    if (*generator == "er") {
      spec.kind = graph::GeneratorKind::kErdosRenyi;
    } else if (*generator == "ba") {
      spec.kind = graph::GeneratorKind::kBarabasiAlbert;
    } else if (*generator == "sf") {
      spec.kind = graph::GeneratorKind::kScaleFree;
    } else if (*generator == "ssf") {
      spec.kind = graph::GeneratorKind::kStreamingScaleFree;
    } else {
      return Status::InvalidArgument(
          "--generator must be er, ba, sf, or ssf; got " + *generator);
    }
    source = graph::GraphSource::Generator(spec, seed);
  } else if (auto snapshot = flags.Get("snapshot")) {
    source = graph::GraphSource::Snapshot(*snapshot);
  } else {
    return Status::InvalidArgument(
        "gen-graph needs --profile, --generator, or --snapshot");
  }
  KGOV_ASSIGN_OR_RETURN(graph::WeightedDigraph g, graph::LoadGraph(source));
  KGOV_RETURN_IF_ERROR(graph::SaveEdgeList(g, out));
  std::printf("%s: %zu nodes, %zu edges -> %s\n",
              source.ToString().c_str(), g.NumNodes(), g.NumEdges(),
              out.c_str());
  return Status::OK();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: kgov_cli <command> [flags]\n"
      "commands:\n"
      "  gen-corpus    --out F [--entities N --topics T --docs D --seed S]\n"
      "  gen-graph     --out F (--profile NAME | --generator er|ba|sf|ssf\n"
      "                [--nodes N --edges E --per-node K] | --snapshot F)\n"
      "                [--seed S]   (edge-list written to --out)\n"
      "  gen-questions --corpus F --out F [--count N --seed S]\n"
      "  build-kg      --corpus F --out F\n"
      "  ask           --graph F --question \"e:c e:c\" [--topk K]\n"
      "  eval          --graph F --questions F [--topk K]\n"
      "  collect-votes --graph F --questions F --out F [--topk K]\n"
      "  optimize      --graph F --votes F --out F [--strategy "
      "single|multi|sm --lambda1 X --lambda2 X --length L --aggregate 0|1]\n"
      "  conflicts     --votes F [--min-overlap X]\n"
      "  stats         --graph F\n"
      "  snapshot      --graph F --dir D [--votes F --epoch N]\n"
      "  recover       --dir D [--out F --verify 0|1]\n"
      "global flags:\n"
      "  --telemetry-json F   write a runtime-metrics snapshot (counters,\n"
      "                       stage spans, latency histograms) to F after\n"
      "                       the command finishes\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags(argc, argv, 2);
  std::string command = argv[1];
  Status status;
  if (command == "gen-corpus") {
    status = CmdGenCorpus(flags);
  } else if (command == "gen-graph") {
    status = CmdGenGraph(flags);
  } else if (command == "gen-questions") {
    status = CmdGenQuestions(flags);
  } else if (command == "build-kg") {
    status = CmdBuildKg(flags);
  } else if (command == "ask") {
    status = CmdAsk(flags);
  } else if (command == "eval") {
    status = CmdEval(flags);
  } else if (command == "collect-votes") {
    status = CmdCollectVotes(flags);
  } else if (command == "optimize") {
    status = CmdOptimize(flags);
  } else if (command == "conflicts") {
    status = CmdConflicts(flags);
  } else if (command == "stats") {
    status = CmdStats(flags);
  } else if (command == "snapshot") {
    status = CmdSnapshot(flags);
  } else if (command == "recover") {
    status = CmdRecover(flags);
  } else {
    return Usage();
  }
  // Dump the telemetry snapshot even when the command failed: the counters
  // around the failure are exactly what an operator wants to see.
  if (auto telemetry_path = flags.Get("telemetry-json")) {
    Status dumped = telemetry::MetricRegistry::Global().WriteSnapshotJson(
        *telemetry_path);
    if (!dumped.ok()) {
      std::fprintf(stderr, "error: %s\n", dumped.ToString().c_str());
      if (status.ok()) status = dumped;
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kgov

int main(int argc, char** argv) { return kgov::Main(argc, argv); }
