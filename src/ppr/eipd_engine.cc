#include "ppr/eipd_engine.h"

#include <cmath>
#include <string>

#include "common/timer.h"
#include "telemetry/metrics.h"

namespace kgov::ppr {

Status EipdOptions::Validate() const {
  if (max_length < 1) {
    return Status::InvalidArgument(
        "EipdOptions.max_length must be >= 1, got " +
        std::to_string(max_length));
  }
  if (!(restart > 0.0 && restart < 1.0)) {
    return Status::InvalidArgument(
        "EipdOptions.restart must be in (0, 1), got " +
        std::to_string(restart));
  }
  return Status::OK();
}

std::vector<PropagationWorkspace>& ThreadLocalLanes() {
  static thread_local std::vector<PropagationWorkspace> lanes(1);
  return lanes;
}

EipdEngine::EipdEngine(graph::GraphView view, EipdOptions options)
    : view_(view), options_(options) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
}

Status EipdEngine::ValidateSeed(const QuerySeed& seed) const {
  for (size_t i = 0; i < seed.links.size(); ++i) {
    const auto& [node, weight] = seed.links[i];
    if (!view_.IsValidNode(node)) {
      return Status::InvalidArgument(
          "seed link " + std::to_string(i) + " names node " +
          std::to_string(node) + ", outside the view's " +
          std::to_string(view_.NumNodes()) + " nodes");
    }
    if (!std::isfinite(weight) || weight < 0.0) {
      return Status::InvalidArgument(
          "seed link " + std::to_string(i) + " (node " +
          std::to_string(node) + ") has non-finite or negative weight " +
          std::to_string(weight));
    }
  }
  return Status::OK();
}

void EipdEngine::PropagateLanes(std::span<const QuerySeed* const> roots,
                                PropagationWorkspace* lanes) const {
  // Serving-latency telemetry: one Timer (two steady-clock reads) and one
  // histogram Observe per pass -- a fraction of a percent of a single
  // propagation on the bench graph. Each lane counts as one query (it does
  // the arithmetic a single-root query would); passes that fold two or
  // more lanes are counted too, so dashboards can see the batching ratio.
  static telemetry::Histogram* const latency =
      telemetry::MetricRegistry::Global().GetHistogram(
          "serving.eipd.propagate.seconds");
  static telemetry::Counter* const queries =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.queries");
  // Counts every lane. The name predates the one kernel; kgbench reads it
  // for ppr.kernel_sparse_ratio.
  static telemetry::Counter* const propagations =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.kernel.sparse");
  static telemetry::Counter* const multi_passes =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.multi_passes");
  static telemetry::Counter* const multi_roots =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.multi_roots");
  Timer timer;
  internal::PropagatePhi(internal::ViewAdjacency{view_}, roots, options_,
                         lanes);
  propagations->Increment(roots.size());
  queries->Increment(roots.size());
  if (roots.size() > 1) {
    multi_passes->Increment();
    multi_roots->Increment(roots.size());
  }
  latency->Observe(timer.ElapsedSeconds());
}

const std::vector<double>& EipdEngine::PropagateInto(
    const QuerySeed& seed, PropagationWorkspace* ws) const {
  if (ws == nullptr) ws = &ThreadLocalLanes().front();
  const QuerySeed* root = &seed;
  PropagateLanes({&root, 1}, ws);
  return ws->phi;
}

StatusOr<std::vector<double>> EipdEngine::Propagate(
    const QuerySeed& seed, PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  return PropagateInto(seed, ws);
}

StatusOr<std::vector<double>> EipdEngine::Scores(
    const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
    PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  const std::vector<double>& phi = PropagateInto(seed, ws);
  std::vector<double> out(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!view_.IsValidNode(answers[i])) {
      return Status::InvalidArgument(
          "answers[" + std::to_string(i) + "] = " +
          std::to_string(answers[i]) + " is outside the view's " +
          std::to_string(view_.NumNodes()) + " nodes");
    }
    out[i] = phi[answers[i]];
  }
  return out;
}

StatusOr<std::vector<ScoredAnswer>> EipdEngine::Rank(
    const QuerySeed& seed, const std::vector<graph::NodeId>& candidates,
    size_t k, PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  return TopKByScore(PropagateInto(seed, ws), candidates, k);
}

StatusOr<std::vector<std::vector<ScoredAnswer>>> EipdEngine::RankMulti(
    const std::vector<QuerySeed>& seeds,
    const std::vector<graph::NodeId>& candidates, size_t k,
    std::vector<PropagationWorkspace>* lanes) const {
  std::vector<std::vector<ScoredAnswer>> results;
  if (seeds.empty()) return results;
  std::vector<const QuerySeed*> roots;
  roots.reserve(seeds.size());
  for (const QuerySeed& seed : seeds) {
    KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
    roots.push_back(&seed);
  }
  if (lanes == nullptr) lanes = &ThreadLocalLanes();
  if (lanes->size() < roots.size()) lanes->resize(roots.size());
  PropagateLanes(roots, lanes->data());

  results.reserve(roots.size());
  for (size_t b = 0; b < roots.size(); ++b) {
    KGOV_ASSIGN_OR_RETURN(std::vector<ScoredAnswer> ranked,
                          TopKByScore((*lanes)[b].phi, candidates, k));
    results.push_back(std::move(ranked));
  }
  return results;
}

}  // namespace kgov::ppr
