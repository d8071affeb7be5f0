#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/timer.h"
#include "trace.h"
#include "workloads.h"

namespace kgbench {

using namespace kgov;

namespace {

/// How many times each workload repeats its set-up; setup_s is the median.
constexpr int kSetupRepeats = 5;

/// The encoder's walk length. The paper uses L=5, but one L=5 multi-vote
/// solve takes about two minutes, so learning runs at L=4 (README.md).
constexpr int kEncoderMaxLength = 4;

/// True when both seeds have identical bytes (the result cache's key).
bool SameSeed(const ppr::QuerySeed& a, const ppr::QuerySeed& b) {
  if (a.links.size() != b.links.size()) return false;
  for (size_t i = 0; i < a.links.size(); ++i) {
    if (a.links[i].first != b.links[i].first ||
        std::memcmp(&a.links[i].second, &b.links[i].second,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Environment MakeEnvironment(uint64_t seed, size_t num_votes) {
  Timer timer;
  Environment out;
  out.corpus_params = qa::TaobaoScaleParams();
  out.sim_params.num_votes = num_votes;
  // Ten times the paper's 100: H@1 on 100 questions moved by +-20% from
  // seed to seed, which would swamp any change a run is meant to show.
  out.sim_params.num_test_questions = 1000;
  out.sim_params.qa.top_k = 20;
  out.sim_params.qa.eipd.max_length = 5;
  out.sim_params.weight_noise = 0.55;
  out.sim_params.edge_dropout = 0.06;
  out.sim_params.vote_error_rate = 0.05;

  Rng rng(seed);
  Result<qa::SimulatedEnvironment> sim =
      qa::BuildEnvironment(out.corpus_params, out.sim_params, rng);
  if (!sim.ok()) Abort("BuildEnvironment: " + sim.status().ToString());
  out.sim = std::move(sim).value();

  out.optimizer_options.encoder.symbolic.eipd = out.sim_params.qa.eipd;
  out.optimizer_options.encoder.symbolic.eipd.max_length = kEncoderMaxLength;
  out.optimizer_options.encoder.symbolic.min_path_mass = 1e-8;
  out.optimizer_options.encoder.is_variable =
      out.sim.deployed.EntityEdgePredicate();
  out.optimizer_options.sgp.lambda1 = 1.0;
  out.optimizer_options.sgp.lambda2 = 0.5;
  // Algorithm 1 verbatim (no refinement rounds), as in the paper.
  out.optimizer_options.single_vote_refine_rounds = 1;
  out.build_seconds = timer.ElapsedSeconds();
  return out;
}

bool SameRanking(const std::vector<ppr::ScoredAnswer>& a,
                 const std::vector<ppr::ScoredAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<ppr::QuerySeed> DistinctQuestionSeeds(
    const Environment& env, size_t count, uint64_t seed,
    std::vector<graph::NodeId>* best_nodes) {
  Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<ppr::QuerySeed> seeds;
  seeds.reserve(count);
  if (best_nodes != nullptr) best_nodes->clear();
  // Generated questions repeat (popular questions are asked often), so
  // draw in rounds until `count` distinct seeds exist.
  for (int round = 0; seeds.size() < count && round < 64; ++round) {
    std::vector<qa::Question> questions = qa::GenerateQuestions(
        env.sim.corpus, count, env.corpus_params, rng);
    for (const qa::Question& q : questions) {
      if (q.best_document < 0) continue;
      ppr::QuerySeed s = qa::LinkQuestion(q, env.sim.deployed.num_entities);
      if (s.empty()) continue;
      bool duplicate = std::any_of(
          seeds.begin(), seeds.end(),
          [&](const ppr::QuerySeed& other) { return SameSeed(s, other); });
      if (duplicate) continue;
      seeds.push_back(std::move(s));
      if (best_nodes != nullptr) {
        best_nodes->push_back(
            env.sim.deployed.answer_nodes[static_cast<size_t>(q.best_document)]);
      }
      if (seeds.size() == count) break;
    }
  }
  if (seeds.size() < count) Abort("could not draw enough distinct questions");
  return seeds;
}

double ReciprocalRank(const std::vector<ppr::ScoredAnswer>& answers,
                      graph::NodeId best) {
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].node == best) return 1.0 / static_cast<double>(i + 1);
  }
  return 0.0;
}

void QuestionRanks::Merge(const QuestionRanks& other) {
  for (size_t i = 0; i < sum_.size(); ++i) {
    sum_[i] += other.sum_[i];
    count_[i] += other.count_[i];
  }
}

double QuestionRanks::Mrr() const {
  double total = 0.0;
  size_t answered = 0;
  for (size_t i = 0; i < sum_.size(); ++i) {
    if (count_[i] == 0) continue;
    total += sum_[i] / static_cast<double>(count_[i]);
    ++answered;
  }
  return answered == 0 ? 0.0 : total / static_cast<double>(answered);
}

ZipfSampler::ZipfSampler(size_t n) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(double uniform01) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), uniform01);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double RepeatSetup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Timer timer;
    setup();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return Median(seconds);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReportTrace(const RunOptions& run, Report* report) {
  TraceSummary summary = SummarizeTrace();
  double total_self = 0.0;
  for (const auto& [layer, seconds] : summary.self_seconds) {
    total_self += seconds;
  }
  for (const auto& [layer, seconds] : summary.self_seconds) {
    report->Set("trace." + layer + ".self_share",
                total_self > 0.0 ? seconds / total_self : 0.0, "ratio");
  }
  // Estimated cost of recording as a share of the traced operations' time.
  report->Set("trace.overhead_pct",
              summary.root_seconds > 0.0
                  ? 100.0 * static_cast<double>(summary.spans) *
                        summary.seconds_per_span / summary.root_seconds
                  : 0.0,
              "%");
  const std::string path = run.work_dir + "/trace-" + run.workload + "-" +
                           std::to_string(run.seed) + ".jsonl";
  if (!WriteTrace(path)) Abort("cannot write " + path);
  std::fprintf(stderr, "kgbench: %llu spans written to %s\n",
               static_cast<unsigned long long>(summary.spans), path.c_str());
}

}  // namespace kgbench
