// Shared helpers for the kgov benchmark harnesses: a fixed-width table
// printer matching the paper's presentation, and the standard simulated
// Taobao environment used by the effectiveness experiments (Tables III-V,
// Fig. 5).

#ifndef KGOV_BENCH_BENCH_UTIL_H_
#define KGOV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/kg_optimizer.h"
#include "qa/user_sim.h"
#include "telemetry/metrics.h"

namespace kgov::bench {

/// Prints a fixed-width ASCII table: header row, separator, data rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths)
      : headers_(std::move(headers)), widths_(std::move(widths)) {}

  void PrintHeader() const {
    PrintRow(headers_);
    std::string sep;
    for (int w : widths_) {
      sep += std::string(static_cast<size_t>(w), '-');
      sep += "  ";
    }
    std::printf("%s\n", sep.c_str());
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
      int width = i < widths_.size() ? widths_[i] : 12;
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%-*s  ", width, cells[i].c_str());
      line += buf;
    }
    std::printf("%s\n", line.c_str());
  }

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// Prints the standard experiment banner.
inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

/// The standard simulated user study used by the effectiveness
/// experiments. `scale` in (0, 1] shrinks the corpus (1.0 = paper scale:
/// 1,663 entities / 2,379 documents / 100 votes / 100 test questions).
struct TaobaoEnvironment {
  qa::CorpusParams corpus_params;
  qa::UserSimParams sim_params;
  qa::SimulatedEnvironment env;
  core::OptimizerOptions optimizer_options;
};

inline Result<TaobaoEnvironment> MakeTaobaoEnvironment(double scale,
                                                       uint64_t seed) {
  TaobaoEnvironment out;
  out.corpus_params = qa::TaobaoScaleParams();
  if (scale < 1.0) {
    out.corpus_params.num_entities = static_cast<size_t>(1663 * scale);
    out.corpus_params.num_topics =
        std::max<size_t>(8, static_cast<size_t>(180 * scale));
    out.corpus_params.num_documents = static_cast<size_t>(2379 * scale);
  }

  out.sim_params.num_votes = 100;
  out.sim_params.num_test_questions = 100;
  out.sim_params.qa.top_k = 20;
  out.sim_params.qa.eipd.max_length = 5;
  out.sim_params.weight_noise = 0.55;
  out.sim_params.edge_dropout = 0.06;
  out.sim_params.vote_error_rate = 0.05;

  Rng rng(seed);
  Result<qa::SimulatedEnvironment> env =
      qa::BuildEnvironment(out.corpus_params, out.sim_params, rng);
  KGOV_RETURN_IF_ERROR(env.status());
  out.env = std::move(env).value();

  out.optimizer_options.encoder.symbolic.eipd = out.sim_params.qa.eipd;
  out.optimizer_options.encoder.is_variable =
      out.env.deployed.EntityEdgePredicate();
  out.optimizer_options.sgp.lambda1 = 1.0;
  out.optimizer_options.sgp.lambda2 = 0.5;
  // Algorithm 1 verbatim (no refinement rounds), as in the paper.
  out.optimizer_options.single_vote_refine_rounds = 1;
  return out;
}

/// Writes the process-wide telemetry snapshot to `path` and reports where
/// it went. Benchmarks call this at exit so a run leaves behind the same
/// counters/spans/histograms JSON the CLI's --telemetry-json produces.
inline void DumpTelemetry(const std::string& path) {
  Status status =
      telemetry::MetricRegistry::Global().WriteSnapshotJson(path);
  if (status.ok()) {
    std::printf("telemetry snapshot -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "telemetry snapshot failed: %s\n",
                 status.ToString().c_str());
  }
}

/// Formats a double with the given precision into a std::string.
inline std::string Num(double value, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace kgov::bench

#endif  // KGOV_BENCH_BENCH_UTIL_H_
