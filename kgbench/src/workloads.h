// The four kgbench workloads and the pieces they share.
//
// Every workload builds the paper-scale help-desk KG (qa::TaobaoScaleParams:
// 4,042 nodes, about 37k edges) from the run seed, then does only its own
// kind of work. See kgbench/README.md for why each workload exists and
// which layer metric should move which end-to-end metric.

#ifndef KGBENCH_WORKLOADS_H_
#define KGBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/kg_optimizer.h"
#include "ppr/query_seed.h"
#include "ppr/ranking.h"
#include "qa/user_sim.h"
#include "report.h"

namespace kgbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for WAL segments, snapshots and span files.
  std::string work_dir;
};

/// The simulated help-desk deployment: corpus, ground-truth and deployed
/// KGs, simulated votes and held-out questions.
struct Environment {
  kgov::qa::CorpusParams corpus_params;
  kgov::qa::UserSimParams sim_params;
  kgov::qa::SimulatedEnvironment sim;
  kgov::core::OptimizerOptions optimizer_options;
  /// Wall time of the corpus + KG + vote simulation build.
  double build_seconds = 0.0;
};

/// Builds the environment for `seed` with `num_votes` simulated votes and
/// 1,000 held-out questions.
Environment MakeEnvironment(uint64_t seed, size_t num_votes);

/// `count` distinct query seeds linked from generated, labeled questions,
/// in generation order (duplicates by seed bytes dropped). When
/// `best_nodes` is given, (*best_nodes)[i] is the answer node of seed i's
/// ground-truth document.
std::vector<kgov::ppr::QuerySeed> DistinctQuestionSeeds(
    const Environment& env, size_t count, uint64_t seed,
    std::vector<kgov::graph::NodeId>* best_nodes = nullptr);

/// 1 / (position + 1) of `best` in `answers`; 0 when it is absent.
double ReciprocalRank(const std::vector<kgov::ppr::ScoredAnswer>& answers,
                      kgov::graph::NodeId best);

/// Answer quality over a fixed set of questions: the mean reciprocal rank
/// over the distinct questions answered, where a question answered several
/// times contributes the mean of its reciprocal ranks. Weighting every
/// question once keeps a Zipf draw's few popular questions from setting
/// the number.
class QuestionRanks {
 public:
  explicit QuestionRanks(size_t num_questions)
      : sum_(num_questions, 0.0), count_(num_questions, 0) {}
  void Add(size_t question, double reciprocal_rank) {
    sum_[question] += reciprocal_rank;
    ++count_[question];
  }
  void Merge(const QuestionRanks& other);
  /// 0 when no question was answered.
  double Mrr() const;

 private:
  std::vector<double> sum_;
  std::vector<uint32_t> count_;
};

/// True when both rankings hold the same nodes with bit-identical scores.
bool SameRanking(const std::vector<kgov::ppr::ScoredAnswer>& a,
                 const std::vector<kgov::ppr::ScoredAnswer>& b);

/// Zipf(s = 1) sampler over [0, n).
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n);
  size_t Sample(double uniform01) const;

 private:
  std::vector<double> cdf_;
};

/// Runs `setup` five times (each result replaces the last) and returns
/// the median wall time in seconds.
double RepeatSetup(const std::function<void()>& setup);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Adds the trace-derived per-layer metrics (self-time shares, span count,
/// overhead) and writes the span file.
void ReportTrace(const RunOptions& run, Report* report);

void RunQaCold(const RunOptions& run, Report* report);
void RunQaHot(const RunOptions& run, Report* report);
void RunLearnBatch(const RunOptions& run, Report* report);
void RunStreamMixed(const RunOptions& run, Report* report);

}  // namespace kgbench

#endif  // KGBENCH_WORKLOADS_H_
