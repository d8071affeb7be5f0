// Bidirectional mapping between graph edges and SGP optimization variables.
//
// The paper's ObtainVariableSet (Alg. 1 line 4) introduces one variable
// x_{i,j} per optimizable edge that appears on some walk relevant to a
// vote, so the variable space of a program is exactly the set of edges its
// votes can influence. This header also holds what both vote encoders
// (votes::VoteProgram and the signomial oracle, ppr::SymbolicEipd) share:
// the variable predicate and the encoding options.

#ifndef KGOV_PPR_EDGE_VARS_H_
#define KGOV_PPR_EDGE_VARS_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "math/monomial.h"
#include "ppr/eipd_engine.h"

namespace kgov::ppr {

/// Decides whether an edge is an optimization variable. Receives the graph
/// explicitly so predicates hold no graph pointers and stay valid when
/// graphs (or structs containing them) are copied or moved.
using EdgePredicate =
    std::function<bool(const graph::WeightedDigraph&, graph::EdgeId)>;

struct SymbolicEipdOptions {
  EipdOptions eipd;
  /// Walks whose probability mass falls below this are pruned from the
  /// signomial expansion. Only the signomial oracle (ppr::SymbolicEipd,
  /// votes::VoteEncoder) honours it; the optimizer's adjoint program is
  /// exact. 0 disables pruning.
  double min_path_mass = 0.0;

  /// Checks this struct and the nested EipdOptions.
  Status Validate() const;
};

class EdgeVariableMap {
 public:
  EdgeVariableMap() = default;

  /// Variable for `edge`, registering it on first use.
  math::VarId GetOrRegister(graph::EdgeId edge);

  /// Variable for `edge` if already registered.
  std::optional<math::VarId> Find(graph::EdgeId edge) const;

  /// Edge behind `var`. Requires var < NumVariables().
  graph::EdgeId EdgeOf(math::VarId var) const;

  size_t NumVariables() const { return var_to_edge_.size(); }

  /// var -> edge table (index = variable id).
  const std::vector<graph::EdgeId>& variables() const { return var_to_edge_; }

  /// Current weights of all registered edges, indexed by variable id: the
  /// SGP initial point (Alg. 1 lines 5-8).
  std::vector<double> InitialValues(const graph::WeightedDigraph& graph) const;

  /// Writes `values` (indexed by variable id) back into the graph
  /// (Alg. 1 lines 13-15).
  void ApplyValues(const std::vector<double>& values,
                   graph::WeightedDigraph* graph) const;

 private:
  std::unordered_map<graph::EdgeId, math::VarId> edge_to_var_;
  std::vector<graph::EdgeId> var_to_edge_;
};

}  // namespace kgov::ppr

#endif  // KGOV_PPR_EDGE_VARS_H_
