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

PropagationWorkspace& ThreadLocalWorkspace() {
  static thread_local PropagationWorkspace ws;
  return ws;
}

namespace internal {

TargetSlots BuildTargetSlots(graph::GraphView view,
                             std::span<const graph::NodeId> targets) {
  const size_t n = view.NumNodes();
  TargetSlots index;
  index.is_target.assign(n, 0);
  for (graph::NodeId t : targets) {
    KGOV_CHECK(view.IsValidNode(t)) << "target " << t << " is not a node";
    index.is_target[t] = 1;
  }
  index.begin.reserve(n + 1);
  index.begin.push_back(0);
  for (graph::NodeId u = 0; u < n; ++u) {
    const graph::GraphView::Neighbor* b = view.begin(u);
    for (size_t k = 0, e = view.OutDegree(u); k < e; ++k) {
      if (index.is_target[b[k].to]) {
        index.offsets.push_back(static_cast<uint32_t>(k));
      }
    }
    index.begin.push_back(index.offsets.size());
  }
  return index;
}

Status CheckTargetSlots(graph::GraphView view, const TargetSlots& index) {
  const size_t n = view.NumNodes();
  size_t slot = 0;
  for (graph::NodeId u = 0; u <= n; ++u) {
    if (index.begin[u] != slot) {
      return Status::FailedPrecondition(
          "answer index drifts from the view at node " + std::to_string(u));
    }
    if (u == n) break;
    const graph::GraphView::Neighbor* b = view.begin(u);
    for (size_t k = 0, e = view.OutDegree(u); k < e; ++k) {
      if (!index.is_target[b[k].to]) continue;
      if (slot == index.offsets.size() || index.offsets[slot] != k) {
        return Status::FailedPrecondition(
            "answer index misses out-edge " + std::to_string(k) +
            " of node " + std::to_string(u));
      }
      ++slot;
    }
  }
  return Status::OK();
}

}  // namespace internal

EipdEngine::EipdEngine(graph::GraphView view, EipdOptions options,
                       std::span<const graph::NodeId> answers)
    : view_(view), options_(options) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
  if (!answers.empty()) {
    answer_index_ = std::make_shared<const internal::TargetSlots>(
        internal::BuildTargetSlots(view_, answers));
  }
}

EipdEngine::EipdEngine(
    graph::GraphView view, EipdOptions options,
    std::shared_ptr<const internal::TargetSlots> answer_index)
    : view_(view), options_(options), answer_index_(std::move(answer_index)) {
  Status valid = options_.Validate();
  KGOV_CHECK(valid.ok()) << valid.ToString();
  KGOV_CHECK(answer_index_ != nullptr) << "null answer index";
  const internal::TargetSlots& index = *answer_index_;
  KGOV_CHECK(index.is_target.size() == view_.NumNodes() &&
             index.begin.size() == view_.NumNodes() + 1 &&
             index.begin.back() == index.offsets.size() &&
             index.begin.back() <= view_.NumEdges())
      << "answer index over " << index.is_target.size() << " nodes and "
      << index.begin.back() << " slots does not fit a view of "
      << view_.NumNodes() << " nodes and " << view_.NumEdges() << " edges";
  // O(|V| + |E|), so compiled out under NDEBUG.
  KGOV_DCHECK_OK(internal::CheckTargetSlots(view_, index));
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

const std::vector<double>& EipdEngine::PropagateInto(
    const QuerySeed& seed, PropagationWorkspace* ws,
    const internal::TargetSlots* last_hop) const {
  // Serving-latency telemetry: one Timer (two steady-clock reads) and one
  // histogram Observe per pass -- a fraction of a percent of a single
  // propagation on the bench graph.
  static telemetry::Histogram* const latency =
      telemetry::MetricRegistry::Global().GetHistogram(
          "serving.eipd.propagate.seconds");
  static telemetry::Counter* const queries =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.queries");
  // Counts every propagation. The name predates the one kernel; kgbench
  // reads it for ppr.kernel_sparse_ratio.
  static telemetry::Counter* const propagations =
      telemetry::MetricRegistry::Global().GetCounter(
          "serving.eipd.kernel.sparse");
  if (ws == nullptr) ws = &ThreadLocalWorkspace();
  Timer timer;
  internal::PropagatePhi(internal::ViewAdjacency{view_}, seed, options_, ws,
                         last_hop);
  propagations->Increment();
  queries->Increment();
  latency->Observe(timer.ElapsedSeconds());
  return ws->phi;
}

StatusOr<std::vector<double>> EipdEngine::Propagate(
    const QuerySeed& seed, PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  return PropagateInto(seed, ws, nullptr);
}

StatusOr<std::vector<double>> EipdEngine::Scores(
    const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
    PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  const internal::TargetSlots* index = AnswerIndex();
  const std::vector<double>& phi = PropagateInto(seed, ws, index);
  std::vector<double> out(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!view_.IsValidNode(answers[i])) {
      return Status::InvalidArgument(
          "answers[" + std::to_string(i) + "] = " +
          std::to_string(answers[i]) + " is outside the view's " +
          std::to_string(view_.NumNodes()) + " nodes");
    }
    if (index != nullptr && !index->is_target[answers[i]]) {
      return Status::InvalidArgument(
          "answers[" + std::to_string(i) + "] = " +
          std::to_string(answers[i]) + " is not in the engine's answer set");
    }
    out[i] = phi[answers[i]];
  }
  return out;
}

StatusOr<std::vector<ScoredAnswer>> EipdEngine::Rank(
    const QuerySeed& seed, const std::vector<graph::NodeId>& candidates,
    size_t k, PropagationWorkspace* ws) const {
  KGOV_RETURN_IF_ERROR(ValidateSeed(seed));
  const internal::TargetSlots* index = AnswerIndex();
  return TopKByScore(PropagateInto(seed, ws, index), candidates, k,
                     index == nullptr ? nullptr : &index->is_target);
}

}  // namespace kgov::ppr
