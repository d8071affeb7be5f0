// Result accumulation for one benchmark run: the metrics printed on the
// last line of stdout, the operation counts, and the correctness verdict.

#ifndef KGBENCH_REPORT_H_
#define KGBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kgbench {

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Thrown-free failure path: prints `why` to stderr and exits with code 3
/// without printing a result. Used by the workload self-checks, which must
/// abort a run rather than let it report misleading numbers.
[[noreturn]] void Abort(const std::string& why);

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Records a correctness mismatch. The run still finishes, but the
  /// result line says "correct": false and the process exits non-zero.
  void Mismatch(const std::string& what);

  /// Drops every metric, keeping the counts and the verdict (a traced run
  /// replaces its end-to-end metrics with per-layer ones).
  void ClearMetrics() { metrics_.clear(); }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }

  bool correct() const { return mismatches_ == 0; }
  uint64_t attempted() const { return attempted_; }

  /// The one-line JSON result object.
  std::string ToJson() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

}  // namespace kgbench

#endif  // KGBENCH_REPORT_H_
