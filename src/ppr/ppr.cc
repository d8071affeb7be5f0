#include "ppr/ppr.h"

#include <cmath>

#include "common/logging.h"
#include <string>

namespace kgov::ppr {


Status PprOptions::Validate() const {
  if (!(restart > 0.0 && restart < 1.0)) {
    return Status::InvalidArgument(
        "PprOptions.restart must be in (0, 1), got " +
        std::to_string(restart));
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument(
        "PprOptions.max_iterations must be >= 1, got " +
        std::to_string(max_iterations));
  }
  if (!(tolerance > 0.0) || !std::isfinite(tolerance)) {
    return Status::InvalidArgument(
        "PprOptions.tolerance must be finite and > 0, got " +
        std::to_string(tolerance));
  }
  return Status::OK();
}

namespace {

// Runs pi <- (1-c) M pi + c u until the L1 delta is below tolerance.
// `preference` must sum to <= 1.
Result<std::vector<double>> Iterate(graph::GraphView view,
                                    const std::vector<double>& preference,
                                    const PprOptions& options) {
  if (options.restart <= 0.0 || options.restart >= 1.0) {
    return Status::InvalidArgument("restart must lie in (0, 1)");
  }
  if (!view.IsSubStochastic(1e-6)) {
    return Status::FailedPrecondition(
        "PPR requires out-weights summing to <= 1 per node; normalize first");
  }
  const size_t n = view.NumNodes();
  const double c = options.restart;
  std::vector<double> pi(n, 0.0);
  for (size_t i = 0; i < n; ++i) pi[i] = c * preference[i];
  std::vector<double> next(n, 0.0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t i = 0; i < n; ++i) next[i] = c * preference[i];
    for (graph::NodeId u = 0; u < n; ++u) {
      const double scaled = (1.0 - c) * pi[u];
      if (scaled == 0.0) continue;
      for (const graph::GraphView::Neighbor* it = view.begin(u);
           it != view.end(u); ++it) {
        next[it->to] += scaled * it->weight;
      }
    }
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) delta += std::fabs(next[i] - pi[i]);
    pi.swap(next);
    if (delta < options.tolerance) {
      return pi;
    }
  }
  // The iteration contracts by (1-c) per step, so hitting the cap still
  // leaves a usable (slightly truncated) vector; report it as a value but
  // warn in debug logs.
  KGOV_LOG(DEBUG) << "PPR power iteration hit cap of "
                  << options.max_iterations;
  return pi;
}

}  // namespace

Result<std::vector<double>> PowerIterationPpr(graph::GraphView view,
                                              graph::NodeId source,
                                              const PprOptions& options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  if (!view.IsValidNode(source)) {
    return Status::InvalidArgument("PPR source node out of range");
  }
  std::vector<double> preference(view.NumNodes(), 0.0);
  preference[source] = 1.0;
  return Iterate(view, preference, options);
}

Result<std::vector<double>> PowerIterationPprFromSeed(
    graph::GraphView view, const QuerySeed& seed, const PprOptions& options) {
  // A virtual query node vq with out-links `seed` and preference e_vq:
  // since vq has no in-edges, pi restricted to real nodes satisfies
  //   pi = (1-c) M pi + (1-c) c * seed,
  // i.e. the usual iteration with preference (1-c)*seed and no restart mass
  // retained at vq itself.
  if (seed.empty()) {
    return Status::InvalidArgument("empty query seed");
  }
  std::vector<double> preference(view.NumNodes(), 0.0);
  for (const auto& [node, weight] : seed.links) {
    if (!view.IsValidNode(node)) {
      return Status::InvalidArgument("seed node out of range");
    }
    preference[node] += (1.0 - options.restart) * weight;
  }
  return Iterate(view, preference, options);
}

RandomWalkBaseline::RandomWalkBaseline(graph::GraphView view,
                                       PprOptions options)
    : view_(view), options_(options) {}

RandomWalkBaseline::RandomWalkBaseline(const graph::WeightedDigraph* graph,
                                       PprOptions options)
    : options_(options) {
  KGOV_CHECK(graph != nullptr);
  owned_snapshot_ = std::make_shared<graph::CsrSnapshot>(*graph);
  view_ = owned_snapshot_->View();
}

Result<double> RandomWalkBaseline::Similarity(const QuerySeed& seed,
                                              graph::NodeId answer) const {
  if (!view_.IsValidNode(answer)) {
    return Status::InvalidArgument("answer node out of range");
  }
  // Deliberately recomputes the full linear system per (query, answer)
  // pair: this reproduces the baseline's linear-in-answers cost profile.
  KGOV_ASSIGN_OR_RETURN(std::vector<double> pi,
                        PowerIterationPprFromSeed(view_, seed, options_));
  return pi[answer];
}

}  // namespace kgov::ppr
