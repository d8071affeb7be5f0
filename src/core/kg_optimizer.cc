#include "core/kg_optimizer.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "cluster/vote_similarity.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "ppr/eipd_engine.h"
#include "telemetry/metrics.h"

namespace kgov::core {

namespace {

// Split-and-merge stage telemetry; pointers resolved once.
struct SplitMergeMetrics {
  telemetry::Counter* solves;
  telemetry::Counter* clusters;
  telemetry::Counter* failed_clusters;
  telemetry::Counter* quarantined_votes;
  telemetry::Counter* votes_satisfied;
  telemetry::Histogram* split_span;
  telemetry::Histogram* solve_span;
  telemetry::Histogram* cluster_span;
  telemetry::Histogram* verify_span;
  telemetry::Histogram* merge_span;

  static const SplitMergeMetrics& Get() {
    static const SplitMergeMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return SplitMergeMetrics{
          reg.GetCounter("split_merge.solves"),
          reg.GetCounter("split_merge.clusters"),
          reg.GetCounter("split_merge.failed_clusters"),
          reg.GetCounter("split_merge.quarantined_votes"),
          reg.GetCounter("split_merge.votes_satisfied"),
          reg.GetHistogram("span.split_merge.split.seconds"),
          reg.GetHistogram("span.split_merge.solve.seconds"),
          reg.GetHistogram("span.split_merge.cluster.seconds"),
          reg.GetHistogram("span.split_merge.verify.seconds"),
          reg.GetHistogram("span.split_merge.merge.seconds")};
    }();
    return m;
  }
};

// Accumulates per-variable deltas into `changes`, keyed by edge: the
// difference between the value ApplyValues is about to write and the
// weight currently in `graph`. Diff against the graph, NOT
// problem.initial(): the encoder clamps its initial point into the
// variable box, so a solution that "did not move" can still write a
// clamped value over an out-of-box weight - a real bitwise change that
// must be recorded (and its source renormalized) like any other. Call
// before ApplyValues.
void RecordDeltas(const ppr::EdgeVariableMap& vars,
                  const graph::WeightedDigraph& graph,
                  const std::vector<double>& solution,
                  std::unordered_map<graph::EdgeId, double>* changes) {
  for (size_t v = 0; v < vars.NumVariables(); ++v) {
    const graph::EdgeId edge = vars.EdgeOf(static_cast<math::VarId>(v));
    const double delta = solution[v] - graph.Weight(edge);
    if (delta != 0.0) {
      (*changes)[edge] += delta;
    }
  }
}

// Renormalizes only the out-weight lists the update touched (the source
// nodes of edges whose weight moved). Untouched nodes keep their exact bit
// patterns - the invariant the streaming epoch diff and selective cache
// invalidation are built on. A whole-graph renormalize would divide every
// node's weights by a sum that equals 1.0 only up to rounding, perturbing
// the entire graph by an ulp and marking every cluster changed on every
// flush. Normalization-per-touched-node is inductively equivalent: the
// initial graph arrives normalized, and a node's sum only drifts when one
// of its out-edges is updated - exactly when it is renormalized here.
// When `snapshot` is non-null (a CSR of `g` kept across rounds), the
// renormalized nodes are re-read into it.
void NormalizeTouchedSources(
    const std::unordered_map<graph::EdgeId, double>& changes,
    graph::WeightedDigraph* g, graph::CsrSnapshot* snapshot = nullptr) {
  std::unordered_set<graph::NodeId> sources;
  sources.reserve(changes.size());
  for (const auto& [edge, delta] : changes) {
    sources.insert(g->edges()[edge].from);
  }
  for (graph::NodeId node : sources) {
    g->NormalizeOutWeights(node);
    if (snapshot != nullptr) snapshot->RefreshOutWeights(*g, node);
  }
}

// The outcome of a multi-vote solve whose filter left no vote: an error
// when no vote was well-formed, otherwise `report` as it stands, with the
// graph unchanged (the judgment filter discarded every vote).
Result<OptimizeReport> NothingToSolve(const std::vector<votes::Vote>& votes,
                                      OptimizeReport report) {
  if (std::none_of(votes.begin(), votes.end(), [](const votes::Vote& vote) {
        return vote.IsWellFormed();
      })) {
    return Status::InvalidArgument("no well-formed votes to solve");
  }
  return report;
}

}  // namespace

Status OptimizerOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(encoder.symbolic.eipd.Validate());
  KGOV_RETURN_IF_ERROR(sgp.Validate());
  if (encoder.weight_lower_bound <= 0.0) {
    return Status::InvalidArgument(
        "OptimizerOptions.encoder.weight_lower_bound must be > 0");
  }
  if (encoder.weight_upper_bound < encoder.weight_lower_bound) {
    return Status::InvalidArgument(
        "OptimizerOptions.encoder.weight_upper_bound must be >= "
        "weight_lower_bound");
  }
  if (single_vote_refine_rounds < 1) {
    return Status::InvalidArgument(
        "OptimizerOptions.single_vote_refine_rounds must be >= 1");
  }
  return Status::OK();
}

KgOptimizer::KgOptimizer(const graph::WeightedDigraph* graph,
                         OptimizerOptions options)
    : graph_(graph),
      options_(std::move(options)),
      options_status_(options_.Validate()) {
  KGOV_CHECK(graph_ != nullptr);
}

std::vector<votes::Vote> KgOptimizer::Filter(
    const std::vector<votes::Vote>& votes,
    graph::GraphView view) const {
  if (!options_.apply_judgment_filter) {
    std::vector<votes::Vote> kept;
    kept.reserve(votes.size());
    for (const votes::Vote& vote : votes) {
      if (vote.IsWellFormed()) kept.push_back(vote);
    }
    return kept;
  }
  votes::JudgmentOptions judgment;
  judgment.eipd = options_.encoder.symbolic.eipd;
  judgment.is_variable = options_.encoder.is_variable;
  votes::JudgmentFilter filter(graph_, view, std::move(judgment));
  return filter.FilterVotes(votes);
}

Result<OptimizeReport> KgOptimizer::SingleVoteSolve(
    const std::vector<votes::Vote>& votes) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  OptimizeReport report;
  report.votes_in = votes.size();
  report.optimized = *graph_;
  graph::WeightedDigraph& current = report.optimized;

  math::SgpSolverOptions sgp = options_.sgp;
  sgp.formulation = math::SgpFormulation::kHardConstraints;
  math::SgpSolver solver(sgp);

  // One CSR of the working graph for every vote and refine round: each
  // round re-reads the nodes it renormalized.
  Timer timer;
  graph::CsrSnapshot snapshot(current);
  report.encode_seconds += timer.ElapsedSeconds();
  const ppr::EipdEngine evaluator(snapshot.View(),
                                  options_.encoder.symbolic.eipd);
  const int rounds = std::max(1, options_.single_vote_refine_rounds);
  for (const votes::Vote& vote : votes) {
    if (!vote.IsWellFormed() || vote.IsPositive()) continue;

    bool encoded_any = false;
    for (int round = 0; round < rounds; ++round) {
      timer.Restart();
      // Encode against the *current* graph: the greedy algorithm folds
      // each vote's result into the graph before the next (Alg. 1), and
      // refinement rounds see the effect of normalization.
      Result<votes::EncodedProgram> encoded = votes::EncodeVoteProgram(
          current, snapshot.View(), options_.encoder, {vote});
      report.encode_seconds += timer.ElapsedSeconds();
      if (!encoded.ok()) {
        KGOV_LOG(DEBUG) << "vote " << vote.id
                        << " not encodable: " << encoded.status();
        break;
      }
      votes::EncodedProgram& program = encoded.value();

      timer.Restart();
      math::SgpSolution solution = solver.Solve(program.problem);
      report.solve_seconds += timer.ElapsedSeconds();
      // A greedy baseline applies the solver's point even when full
      // feasibility was not reached (fmincon behaves the same way).
      std::unordered_map<graph::EdgeId, double> round_changes;
      RecordDeltas(program.variables, current, solution.x, &round_changes);
      for (const auto& [edge, delta] : round_changes) {
        report.weight_changes[edge] += delta;
      }
      program.variables.ApplyValues(solution.x, &current);
      NormalizeTouchedSources(round_changes, &current, &snapshot);
      if (!encoded_any) {
        report.constraints_total += solution.total_constraints;
        ++report.votes_encoded;
        encoded_any = true;
      }

      // Refinement check: is the voted best answer ranked first now?
      StatusOr<std::vector<ppr::ScoredAnswer>> reranked_or = evaluator.Rank(
          vote.query, vote.answer_list, vote.answer_list.size());
      std::vector<ppr::ScoredAnswer> reranked =
          reranked_or.ok() ? std::move(reranked_or).value()
                           : std::vector<ppr::ScoredAnswer>{};
      if (!reranked.empty() && reranked.front().node == vote.best_answer) {
        report.constraints_satisfied += solution.total_constraints;
        break;
      }
      if (round + 1 == rounds) {
        report.constraints_satisfied += solution.satisfied_constraints;
      }
    }
  }
  report.votes_after_filter = report.votes_encoded;
  return report;
}

Result<OptimizeReport> KgOptimizer::MultiVoteSolve(
    const std::vector<votes::Vote>& votes) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  OptimizeReport report;
  report.votes_in = votes.size();
  report.optimized = *graph_;

  // One CSR of the graph for the filter and the program.
  Timer timer;
  const graph::CsrSnapshot snapshot(*graph_);
  std::vector<votes::Vote> filtered = Filter(votes, snapshot.View());
  report.votes_after_filter = filtered.size();
  if (filtered.empty()) return NothingToSolve(votes, std::move(report));

  Result<votes::EncodedProgram> encoded = votes::EncodeVoteProgram(
      *graph_, snapshot.View(), options_.encoder, filtered);
  KGOV_RETURN_IF_ERROR(encoded.status());
  votes::EncodedProgram& program = encoded.value();
  report.votes_encoded = program.encoded_vote_ids.size();
  report.encode_seconds = timer.ElapsedSeconds();

  timer.Restart();
  const math::SgpSolution solution =
      math::SgpSolver(options_.sgp).Solve(program.problem);
  report.solve_seconds = timer.ElapsedSeconds();
  KGOV_RETURN_IF_ERROR(solution.status);

  RecordDeltas(program.variables, report.optimized, solution.x,
               &report.weight_changes);
  program.variables.ApplyValues(solution.x, &report.optimized);
  NormalizeTouchedSources(report.weight_changes, &report.optimized);
  report.constraints_total = solution.total_constraints;
  report.constraints_satisfied = solution.satisfied_constraints;
  return report;
}

Result<OptimizeReport> KgOptimizer::SplitMergeSolve(
    const std::vector<votes::Vote>& votes) const {
  return SplitMergeImpl(votes, nullptr);
}

Result<OptimizeReport> KgOptimizer::DistributedSplitMergeSolve(
    const std::vector<votes::Vote>& votes, ThreadPool* pool) const {
  if (pool == nullptr) {
    return Status::InvalidArgument(
        "DistributedSplitMergeSolve requires a thread pool");
  }
  return SplitMergeImpl(votes, pool);
}

Result<OptimizeReport> KgOptimizer::SplitMergeImpl(
    const std::vector<votes::Vote>& votes, ThreadPool* pool) const {
  KGOV_RETURN_IF_ERROR(options_status_);
  const SplitMergeMetrics& metrics = SplitMergeMetrics::Get();
  metrics.solves->Increment();
  OptimizeReport report;
  report.votes_in = votes.size();
  report.optimized = *graph_;

  // One frozen CSR of the graph, shared (read-only) by the filter, the
  // split and every cluster's program.
  Timer timer;
  const graph::CsrSnapshot parent_snapshot(*graph_);
  const graph::GraphView parent_view = parent_snapshot.View();
  std::vector<votes::Vote> filtered = Filter(votes, parent_view);
  report.votes_after_filter = filtered.size();
  if (filtered.empty()) return NothingToSolve(votes, std::move(report));

  // Split: edge sets per vote -> similarity matrix -> affinity propagation.
  std::vector<std::vector<double>> similarity = cluster::VoteSimilarityMatrix(
      votes::VoteEdgeSets(parent_view, options_.encoder.symbolic.eipd,
                          filtered));
  Result<cluster::ApResult> clustering =
      cluster::AffinityPropagation(similarity, options_.ap);
  KGOV_RETURN_IF_ERROR(clustering.status());

  size_t num_clusters = clustering->exemplars.size();
  std::vector<std::vector<votes::Vote>> groups(num_clusters);
  for (size_t i = 0; i < filtered.size(); ++i) {
    groups[clustering->labels[i]].push_back(filtered[i]);
  }
  report.num_clusters = num_clusters;
  report.encode_seconds = timer.ElapsedSeconds();
  metrics.split_span->Observe(report.encode_seconds);
  metrics.clusters->Increment(num_clusters);

  // Solve one multi-vote SGP per cluster (clusters are independent by
  // construction, so they may run in parallel). A cluster whose solve
  // does not return OK is isolated: its votes are quarantined into the
  // report and the rest of the batch proceeds.
  timer.Restart();
  std::vector<cluster::ClusterDelta> deltas(num_clusters);
  report.cluster_seconds.assign(num_clusters, 0.0);
  Mutex report_mu{KGOV_LOCK_RANK(kSolverBatchReport)};
  Status first_error;
  std::vector<char> cluster_handled(num_clusters, 0);
  const math::SgpSolver solver(options_.sgp);

  auto record_failure = [&](size_t c,
                            const Status& status) KGOV_REQUIRES(report_mu) {
    report.failed_clusters.push_back(
        ClusterFailure{c, groups[c].size(), status});
    report.quarantined_votes.insert(report.quarantined_votes.end(),
                                    groups[c].begin(), groups[c].end());
    metrics.failed_clusters->Increment();
    metrics.quarantined_votes->Increment(groups[c].size());
    if (first_error.ok()) first_error = status;
  };

  auto solve_cluster = [&](size_t c) {
    if (groups[c].empty()) {
      MutexLock lock(report_mu);
      cluster_handled[c] = 1;
      return;
    }
    Timer cluster_timer;
    // Injection point for stalled cluster solves (deadline testing).
    MaybeInjectStall(FaultSite::kSlowSolve);
    Result<votes::EncodedProgram> encoded = votes::EncodeVoteProgram(
        *graph_, parent_view, options_.encoder, groups[c]);
    if (!encoded.ok()) {
      metrics.cluster_span->Observe(cluster_timer.ElapsedSeconds());
      MutexLock lock(report_mu);
      cluster_handled[c] = 1;
      record_failure(c, encoded.status());
      return;
    }
    votes::EncodedProgram& program = encoded.value();
    const math::SgpSolution solution = solver.Solve(program.problem);
    if (!solution.status.ok()) {
      metrics.cluster_span->Observe(cluster_timer.ElapsedSeconds());
      MutexLock lock(report_mu);
      cluster_handled[c] = 1;
      record_failure(c, solution.status);
      return;
    }

    cluster::ClusterDelta delta;
    delta.num_votes = groups[c].size();
    const std::vector<double>& initial = program.problem.initial();
    for (size_t v = 0; v < program.variables.NumVariables(); ++v) {
      double d = solution.x[v] - initial[v];
      if (d != 0.0) {
        delta.delta[program.variables.EdgeOf(static_cast<math::VarId>(v))] =
            d;
      }
    }
    deltas[c] = std::move(delta);

    // Count the cluster's votes its own solution satisfies: each vote's
    // constraints, evaluated once at solution.x, must all read g < 0, i.e.
    // its best answer's Phi strictly above every other listed answer's
    // (Eq. 11/13). Filter passes only well-formed votes, so the program
    // holds one term of answer_list.size() - 1 constraints per vote of the
    // cluster, in order.
    size_t satisfied = 0;
    {
      telemetry::ScopedSpan verify_span(metrics.verify_span);
      std::vector<double> g;
      program.problem.constraint_set().Evaluate(solution.x, &g, nullptr,
                                                nullptr);
      auto next = g.begin();
      for (const votes::Vote& vote : groups[c]) {
        const auto end = next + static_cast<std::ptrdiff_t>(
                                    vote.answer_list.size() - 1);
        if (std::all_of(next, end, [](double value) { return value < 0.0; })) {
          ++satisfied;
        }
        next = end;
      }
      KGOV_DCHECK(next == g.end());
    }

    metrics.cluster_span->Observe(cluster_timer.ElapsedSeconds());
    metrics.votes_satisfied->Increment(satisfied);
    MutexLock lock(report_mu);
    cluster_handled[c] = 1;
    report.cluster_seconds[c] = cluster_timer.ElapsedSeconds();
    report.votes_encoded += program.encoded_vote_ids.size();
    report.constraints_total += solution.total_constraints;
    report.constraints_satisfied += solution.satisfied_constraints;
    report.votes_satisfied += satisfied;
  };

  // Largest clusters first (by vote count; ties by index): the biggest
  // solve sets the makespan, so it must not start last. Deltas are stored
  // and merged by cluster index, so the order cannot change the output.
  std::vector<size_t> order(num_clusters);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return groups[a].size() > groups[b].size();
  });
  Status parallel_status = ParallelFor(
      pool, num_clusters, [&](size_t i) { solve_cluster(order[i]); });
  report.solve_seconds = timer.ElapsedSeconds();
  metrics.solve_span->Observe(report.solve_seconds);
  // A task that died (threw) before recording any outcome still isolates
  // to its own cluster: quarantine it like a failed solve.
  if (!parallel_status.ok()) {
    MutexLock lock(report_mu);
    for (size_t c = 0; c < num_clusters; ++c) {
      if (!cluster_handled[c] && !groups[c].empty()) {
        record_failure(c, parallel_status);
      }
    }
  }
  if (report.failed_clusters.size() == num_clusters && num_clusters > 0) {
    // Nothing survived: surface the failure instead of a silent no-op.
    return first_error;
  }

  // Merge: resolve multi-cluster conflicts, apply, normalize.
  telemetry::ScopedSpan merge_span(metrics.merge_span);
  std::unordered_map<graph::EdgeId, double> merged =
      cluster::MergeClusterDeltas(deltas, options_.merge_rule);
  for (const auto& [edge, delta] : merged) {
    double w = report.optimized.Weight(edge) + delta;
    w = std::clamp(w, options_.encoder.weight_lower_bound,
                   options_.encoder.weight_upper_bound);
    report.optimized.SetWeight(edge, w);
  }
  report.weight_changes = std::move(merged);
  NormalizeTouchedSources(report.weight_changes, &report.optimized);
  return report;
}

}  // namespace kgov::core
