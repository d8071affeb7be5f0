#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace kgbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

void Abort(const std::string& why) {
  std::fprintf(stderr, "kgbench: aborted: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) Abort("metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit};
}

void Report::Mismatch(const std::string& what) {
  ++mismatches_;
  std::fprintf(stderr, "kgbench: correctness mismatch: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace kgbench
