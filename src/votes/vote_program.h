// Votes as an SGP constraint program evaluated by adjoint EIPD (paper SIV-B,
// SV).
//
// For a negative vote with best answer a*, every other listed answer a
// yields the constraint Phi(vq, a) - Phi(vq, a*) < 0 (Eq. 11); for a
// positive vote the top answer a1 plays the role of a* (Eq. 13), so each
// vote contributes k-1 constraints. VoteProgram evaluates them without
// expanding walks: one evaluation runs, per vote, one forward propagation
// at the trial weights (all of the vote's Phi values) and, when a gradient
// is wanted, one backward propagation seeded with the constraints' VJP
// weights (ppr/eipd_adjoint.h). The program reads Phi only at its votes'
// answers, so its adjoint targets their union: the hop into level L, in
// both passes, walks only the edges into an answer, and the Phi at any
// other node of the forward lane is not exact. The variable set is the
// support of those passes at the current weights: the optimizable edges
// on some walk of length <= L from a vote's query to one of its answers.
//
// votes::VoteEncoder builds the same constraints as explicit signomials;
// it is the oracle this program is tested against.

#ifndef KGOV_VOTES_VOTE_PROGRAM_H_
#define KGOV_VOTES_VOTE_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "math/sgp_problem.h"
#include "ppr/edge_vars.h"
#include "ppr/eipd_adjoint.h"
#include "votes/vote.h"

namespace kgov::votes {

struct EncoderOptions {
  /// Walk settings (path length L, restart c). symbolic.min_path_mass is
  /// honoured only by the signomial oracle (VoteEncoder).
  ppr::SymbolicEipdOptions symbolic;
  /// Decides which edges are optimization variables (null = all edges).
  /// An edge that is its source node's only out-edge is never a variable:
  /// its weight is normalization-invariant (Alg. 1's NormalizeEdges
  /// rescales it straight back to 1), so letting the solver spend slack
  /// on it would silently undo the optimization.
  ppr::EdgePredicate is_variable;
  /// Box bounds for edge-weight variables (paper Eq. 2: 0 < xl <= x <= xu).
  double weight_lower_bound = 1e-4;
  double weight_upper_bound = 1.0;

  /// Checks this struct and the nested SymbolicEipdOptions (positive box
  /// bounds with lower <= upper, per paper Eq. 2).
  Status Validate() const;
};

/// True when edge `e` of `graph` is an optimization variable under
/// `options`: the user predicate composed with the degree-1 exclusion.
bool IsVariableEdge(const EncoderOptions& options,
                    const graph::WeightedDigraph& graph, graph::EdgeId e);

/// True when every node `vote` names lies in `view` and its seed weights
/// are finite and non-negative: what propagating the vote requires.
bool FitsView(const Vote& vote, const graph::GraphView& view);

/// Every answer listed by a well-formed vote that fits `view`, with
/// repeats: the target set of an adjoint that walks those votes.
std::vector<graph::NodeId> FittingAnswers(const std::vector<Vote>& votes,
                                          const graph::GraphView& view);

/// An encoded program plus the edge<->variable mapping needed to write the
/// solution back into the graph.
struct EncodedProgram {
  math::SgpProblem problem;
  ppr::EdgeVariableMap variables;
  /// Ids of the votes actually encoded (well-formed ones), in order.
  std::vector<uint32_t> encoded_vote_ids;
};

/// The votes' constraints, evaluated by forward and backward propagation.
/// Borrows the view's storage, which must outlive the program. Not
/// copyable (its adjoint points into its own variable index).
class VoteProgram final : public math::SgpConstraints {
 public:
  /// One encoded vote; its answers.size() - 1 constraints follow the
  /// previous term's.
  struct Term {
    ppr::QuerySeed seed;
    std::vector<graph::NodeId> answers;
    size_t best = 0;  // index of the reference answer
    double weight = 1.0;
  };

  /// `var_of_edge` maps every EdgeId of the view to a variable in
  /// [0, num_variables), or -1 for an edge that keeps its weight.
  VoteProgram(graph::GraphView view, const ppr::EipdOptions& eipd,
              std::vector<Term> terms, std::vector<int32_t> var_of_edge,
              size_t num_variables);
  VoteProgram(const VoteProgram&) = delete;
  VoteProgram& operator=(const VoteProgram&) = delete;

  size_t size() const override { return weights_.size(); }
  double weight(size_t i) const override { return weights_[i]; }
  size_t num_variables() const override { return num_variables_; }

  /// One forward pass per vote; with `grad`, one backward pass per vote
  /// whose constraints carry a nonzero VJP weight. Single-threaded per
  /// call (the gradient sums in a fixed order); concurrent calls on
  /// different threads are safe.
  void Evaluate(const std::vector<double>& x, std::vector<double>* values,
                const Cotangent* cotangent,
                std::vector<double>* grad) const override;

 private:
  std::vector<Term> terms_;
  std::vector<int32_t> var_of_edge_;
  size_t num_variables_;
  // Per constraint: its vote's weight.
  std::vector<double> weights_;
  // Declared after var_of_edge_, whose data it borrows.
  ppr::EipdAdjoint adjoint_;
};

/// Encodes the well-formed `votes` (negative and positive) into one
/// program over `graph`, whose current weights `view` must show (a
/// CsrSnapshot of it; the program borrows the view). Fails when no vote
/// is well-formed, or a vote names a node outside the graph.
Result<EncodedProgram> EncodeVoteProgram(const graph::WeightedDigraph& graph,
                                         graph::GraphView view,
                                         const EncoderOptions& options,
                                         const std::vector<Vote>& votes);

/// E(t) of each vote (Eq. 20): every edge on a walk of length <= L from
/// its query to one of its listed answers, sorted. Malformed votes, and
/// votes naming nodes outside the view, get an empty set.
std::vector<std::vector<graph::EdgeId>> VoteEdgeSets(
    graph::GraphView view, const ppr::EipdOptions& eipd,
    const std::vector<Vote>& votes);

}  // namespace kgov::votes

#endif  // KGOV_VOTES_VOTE_PROGRAM_H_
