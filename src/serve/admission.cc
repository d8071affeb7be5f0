#include "serve/admission.h"

#include <string>

#include "telemetry/metrics.h"

namespace kgov::serve {

namespace {

// serve.admission.shed, resolved once.
telemetry::Counter* ShedCounter() {
  static telemetry::Counter* const shed =
      telemetry::MetricRegistry::Global().GetCounter("serve.admission.shed");
  return shed;
}

}  // namespace

Status AdmissionOptions::Validate() const {
  if (capacity < 1) {
    return Status::InvalidArgument(
        "AdmissionOptions.capacity must be >= 1");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

Status AdmissionController::TryAdmit() {
  // Optimistic reserve: take the slot, give it back if that overshot the
  // window. Exact under concurrency (two racing admits on the last slot
  // cannot both win; the loser sees > capacity and backs out).
  const size_t occupied =
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (occupied > options_.capacity) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    shed_.Increment();
    ShedCounter()->Increment();
    return Status::ResourceExhausted(
        "serving admission window full (" +
        std::to_string(options_.capacity) +
        " queries in flight); query shed");
  }
  admitted_.Increment();
  return Status::OK();
}

void AdmissionController::Finish() {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

AdmissionController::Stats AdmissionController::GetStats() const {
  Stats stats;
  stats.admitted = admitted_.Value();
  stats.shed = shed_.Value();
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace kgov::serve
