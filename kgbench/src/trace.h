// In-memory span recorder for the traced run (--trace 1).
//
// The benchmark wraps each public kgov call it makes in a Span naming the
// layer that owns the callee (serve, ppr, votes, math, cluster, qa, core,
// stream, durability, graph) or "bench" for the benchmark's own work.
// A span records its name, start, end and parent; all spans of one query
// or vote share one trace id. Spans go to a per-thread buffer (no shared
// lock on the recording path) and are written out when the run ends.
//
// Nothing here is compiled into the kgov libraries: spans inside the
// program are a separate piece of work, so a layer's time is what the
// benchmark sees at the call boundary.

#ifndef KGBENCH_TRACE_H_
#define KGBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

namespace kgbench {

/// Starts recording (off by default: untraced runs pay one branch per
/// span).
void EnableTracing();

/// A fresh id shared by every span of one query or vote.
uint64_t NewTraceId();

/// RAII span; nests under the innermost open span of the same thread.
class Span {
 public:
  Span(const char* layer, const char* name, uint64_t trace_id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_id_ = 0;
  const char* layer_ = nullptr;
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
};

struct TraceSummary {
  uint64_t spans = 0;
  /// Self time (duration minus the part covered by child spans) summed
  /// per layer, in seconds.
  std::map<std::string, double> self_seconds;
  /// Summed duration of root spans, in seconds.
  double root_seconds = 0.0;
  /// Measured cost of recording one span, in seconds.
  double seconds_per_span = 0.0;
};

/// Summarizes every recorded span. Call after all traced threads joined.
TraceSummary SummarizeTrace();

/// Writes every recorded span to `path` as JSON lines. Returns false when
/// the file cannot be written.
bool WriteTrace(const std::string& path);

}  // namespace kgbench

#endif  // KGBENCH_TRACE_H_
