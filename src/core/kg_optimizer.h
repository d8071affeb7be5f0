// KgOptimizer: the public entry point of kgov, implementing the paper's
// four graph-optimization strategies:
//
//   * SingleVoteSolve           - Algorithm 1: one hard-constrained SGP per
//                                 negative vote, solved greedily in
//                                 sequence (SIV).
//   * MultiVoteSolve            - one SGP over all votes (negative and
//                                 positive) with deviation-variable /
//                                 sigmoid objective (SV, Eq. 15/19).
//   * SplitMergeSolve           - the S-M strategy: cluster votes by edge
//                                 overlap with affinity propagation, solve
//                                 one multi-vote SGP per cluster, merge the
//                                 weight changes by the voting rule (SVI).
//                                 A cluster whose solve fails is skipped
//                                 and its votes quarantined into the
//                                 report; each solved cluster counts the
//                                 votes its own solution satisfies.
//   * DistributedSplitMergeSolve- S-M with clusters solved in parallel on a
//                                 thread pool (the paper's 4-machine
//                                 distributed variant).
//
// A failed solve is never retried. Both multi-vote strategies settle it
// one way: the solve's status fails its unit of work (the batch, or the
// cluster), and the caller's outer recovery takes over (OnlineKgOptimizer
// re-queues the votes, then dead-letters them). SingleVoteSolve is the one
// deliberate exception: it applies the solver's best-effort point, as the
// paper's Algorithm 1 does.
//
// All strategies leave the input graph untouched and return the optimized
// copy G* plus a report of what happened. Every applied solution is
// re-normalized per touched source node (Alg. 1 line 16). Which edges a
// solve may change is encoder.is_variable alone, restricted to the edges
// on the votes' walks.

#ifndef KGOV_CORE_KG_OPTIMIZER_H_
#define KGOV_CORE_KG_OPTIMIZER_H_

#include <unordered_map>
#include <vector>

#include "cluster/affinity_propagation.h"
#include "cluster/merge.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "math/sgp_solver.h"
#include "votes/judgment.h"
#include "votes/vote.h"
#include "votes/vote_program.h"

namespace kgov::core {

struct OptimizerOptions {
  /// Vote -> SGP encoding settings (path length L, variable predicate,
  /// weight bounds).
  votes::EncoderOptions encoder;
  /// SGP solver settings (formulation, lambda1/lambda2, continuation
  /// steps, iteration budgets, tolerances and deadlines). SingleVoteSolve
  /// always uses hard constraints regardless of the formulation set here.
  math::SgpSolverOptions sgp;
  /// Run the judgment filter before multi-vote encoding (SV). The filter
  /// inherits the encoder's walk settings and variable set.
  bool apply_judgment_filter = true;
  /// Single-vote refinement: the hard-constraint solution sits exactly on
  /// the feasibility boundary, and the subsequent normalization can cancel
  /// slack placed on out-degree-1 edges (whose relative weight is
  /// normalization-invariant). Re-encode and re-solve against the
  /// normalized graph until the vote is satisfied, up to this many rounds.
  /// 1 reproduces the paper's Algorithm 1 verbatim.
  int single_vote_refine_rounds = 3;
  /// Affinity-propagation settings for SplitMergeSolve.
  cluster::ApOptions ap;
  /// Conflict-resolution rule for SplitMergeSolve.
  cluster::MergeRule merge_rule = cluster::MergeRule::kWeightedSignExtreme;

  /// Checks this struct and its nested option structs; returns
  /// InvalidArgument naming the first offending field. KgOptimizer captures
  /// the result at construction and every solve entry point returns it
  /// without doing work when not OK.
  Status Validate() const;
};

/// A cluster whose solve failed and was isolated from the batch.
struct ClusterFailure {
  size_t cluster = 0;
  size_t num_votes = 0;
  Status status;
};

struct OptimizeReport {
  /// The optimized graph G*.
  graph::WeightedDigraph optimized;
  /// Votes given / surviving the judgment filter / actually encoded.
  size_t votes_in = 0;
  size_t votes_after_filter = 0;
  size_t votes_encoded = 0;
  /// Constraint satisfaction at the solution (multi-vote strategies).
  int constraints_total = 0;
  int constraints_satisfied = 0;
  /// Cluster count (split-and-merge strategies; 0 otherwise).
  size_t num_clusters = 0;
  /// Per-cluster solve wall times (split-and-merge strategies). Lets
  /// callers compute a simulated distributed makespan on machines with too
  /// few cores to measure real parallel speedups.
  std::vector<double> cluster_seconds;
  /// Wall time spent building programs vs solving them.
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Net weight change applied per edge (before normalization).
  std::unordered_map<graph::EdgeId, double> weight_changes;
  /// Split-and-merge: votes whose constraints all hold (g < 0: the best
  /// answer's Phi strictly above every other listed answer's) at their
  /// cluster's solution, before merging and normalization.
  size_t votes_satisfied = 0;
  /// Clusters skipped by failure isolation (split-and-merge strategies).
  std::vector<ClusterFailure> failed_clusters;
  /// The failed clusters' votes, untouched, so the caller can re-queue
  /// them (see OnlineKgOptimizer) or inspect them.
  std::vector<votes::Vote> quarantined_votes;
};

class KgOptimizer {
 public:
  /// `graph` is borrowed (never mutated) and must outlive the optimizer.
  KgOptimizer(const graph::WeightedDigraph* graph, OptimizerOptions options);

  const OptimizerOptions& options() const { return options_; }

  /// Algorithm 1. Positive votes are ignored (SIV-B). A vote whose solve
  /// does not return OK still applies the solver's best-effort point
  /// (always finite and in the box), matching the greedy baseline: the one
  /// strategy where a failed solve does not fail its unit of work.
  Result<OptimizeReport> SingleVoteSolve(
      const std::vector<votes::Vote>& votes) const;

  /// One batch SGP over all votes (SV). When the judgment filter discards
  /// every vote, this and the split-and-merge strategies return the graph
  /// unchanged with votes_after_filter = 0; a batch without a well-formed
  /// vote is InvalidArgument. A solve that does not return OK (NotConverged,
  /// NumericalError, DeadlineExceeded, ...) is returned as the error and
  /// nothing is applied.
  Result<OptimizeReport> MultiVoteSolve(
      const std::vector<votes::Vote>& votes) const;

  /// Split-and-merge (SVI); sequential cluster solves. A cluster whose
  /// encode or solve does not return OK is quarantined (failed_clusters,
  /// quarantined_votes); when every cluster fails, the first failure is
  /// returned.
  Result<OptimizeReport> SplitMergeSolve(
      const std::vector<votes::Vote>& votes) const;

  /// Split-and-merge with clusters solved on `pool` (must have >= 1
  /// worker; the paper used 4 machines).
  Result<OptimizeReport> DistributedSplitMergeSolve(
      const std::vector<votes::Vote>& votes, ThreadPool* pool) const;

 private:
  Result<OptimizeReport> SplitMergeImpl(const std::vector<votes::Vote>& votes,
                                        ThreadPool* pool) const;

  /// Applies judgment filtering when enabled; returns surviving votes.
  /// `view` shows graph_'s current weights.
  std::vector<votes::Vote> Filter(const std::vector<votes::Vote>& votes,
                                  graph::GraphView view) const;

  const graph::WeightedDigraph* graph_;
  OptimizerOptions options_;
  // options_.Validate() captured at construction; solve entry points fail
  // fast with it when not OK.
  Status options_status_;
};

}  // namespace kgov::core

#endif  // KGOV_CORE_KG_OPTIMIZER_H_
