// Symbolic extended inverse P-distance: expresses Phi(vq, va) as a
// signomial over edge-weight variables (paper Eq. 11).
//
// Every bounded-length walk from the query seed to an answer becomes one
// monomial: the coefficient collects c*(1-c)^|z| times the weights of the
// walk's *fixed* edges, and each *optimizable* edge contributes a factor
// x_e^(times the walk traverses e). Which edges are optimizable is decided
// by a caller-supplied predicate (the Q&A system marks entity-to-entity
// edges optimizable and query/answer link edges fixed).
//
// The optimizer does not use this expansion: votes::VoteProgram evaluates
// the same constraints by adjoint propagation (ppr/eipd_adjoint.h). It
// stays as the slow oracle those paths are tested against, through
// votes::VoteEncoder.

#ifndef KGOV_PPR_SYMBOLIC_EIPD_H_
#define KGOV_PPR_SYMBOLIC_EIPD_H_

#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "math/signomial.h"
#include "ppr/edge_vars.h"
#include "ppr/eipd_engine.h"
#include "ppr/query_seed.h"

namespace kgov::ppr {

/// Symbolic similarity of one answer.
struct SymbolicAnswer {
  graph::NodeId answer = graph::kInvalidNode;
  /// Phi(vq, answer) over the variables registered in the EdgeVariableMap.
  math::Signomial similarity;
  /// Every edge (fixed or variable) on some contributing walk: the paper's
  /// Set(va), which EipdAdjoint::SupportEdges must reproduce exactly.
  std::unordered_set<graph::EdgeId> path_edges;
};

/// DFS-based symbolic walk expansion. Thread-compatible (no shared state
/// across Collect calls besides the borrowed graph).
class SymbolicEipd {
 public:
  /// `graph` is borrowed. `is_variable(g, e)` decides whether edge e is an
  /// optimization variable; a null predicate marks every edge variable.
  SymbolicEipd(const graph::WeightedDigraph* graph,
               EdgePredicate is_variable,
               SymbolicEipdOptions options = {});

  /// Expands all walks of length <= L from `seed`, emitting per-answer
  /// signomials. Registers any traversed variable edge in `vars`.
  std::vector<SymbolicAnswer> Collect(
      const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
      EdgeVariableMap* vars) const;

 private:
  struct DfsState;
  void Dfs(DfsState* state, graph::NodeId node, int length,
           double numeric_mass, double fixed_coeff) const;

  const graph::WeightedDigraph* graph_;
  EdgePredicate is_variable_;
  SymbolicEipdOptions options_;
};

}  // namespace kgov::ppr

#endif  // KGOV_PPR_SYMBOLIC_EIPD_H_
