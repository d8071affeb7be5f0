// Admission control + load shedding for the serving read path.
//
// Without a bound on the propagations in flight, a traffic spike queues
// without limit: every query is eventually served, but tail latency grows
// with the backlog. AdmissionController makes overload a first-class
// outcome with a bounded admission window: `capacity` queries admitted and
// not yet finished (queued plus executing). TryAdmit is non-blocking: when
// the window is full the query is SHED immediately with
// kResourceExhausted (counted in serve.admission.shed), never parked.
// Callers that must not drop can retry; the engine itself stays
// responsive.
//
// It is a MISS window: QueryEngine probes the result cache before it
// admits, so a cache hit takes no slot and is never shed. Only the
// queries that go on to propagate (or to wait on another query's
// propagation) are bounded, which is the work the window exists to bound.
//
// The in-flight count is the window's own word, read through
// GetStats().in_flight; no gauge mirrors it, so an admit writes one
// shared word and its own counter cell.

#ifndef KGOV_SERVE_ADMISSION_H_
#define KGOV_SERVE_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "telemetry/metrics.h"

namespace kgov::serve {

struct AdmissionOptions {
  /// Queries admitted and not yet finished (queued + executing) before
  /// TryAdmit sheds. Sized for the worst burst the pool should absorb.
  size_t capacity = 1024;

  /// Checks every field range; returns InvalidArgument naming the first
  /// offending field.
  Status Validate() const;
};

/// Bounded admission window. Thread-safe and lock-free; one instance per
/// QueryEngine. Every admitted query must be matched by exactly one
/// Finish() (the engine pairs them in FinishMiss).
class AdmissionController {
 public:
  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed = 0;
    /// Queries admitted and not yet finished, at the moment of the read.
    uint64_t in_flight = 0;
  };

  /// `options` must already validate OK (the engine validates at
  /// construction and fails fast).
  explicit AdmissionController(AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Takes one admission slot, or sheds with kResourceExhausted when the
  /// window is full. Non-blocking either way.
  Status TryAdmit();

  /// Releases the slot taken by TryAdmit.
  void Finish();

  Stats GetStats() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;

  std::atomic<size_t> in_flight_{0};
  telemetry::Counter admitted_;
  telemetry::Counter shed_;
};

}  // namespace kgov::serve

#endif  // KGOV_SERVE_ADMISSION_H_
