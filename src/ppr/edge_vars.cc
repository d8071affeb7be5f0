#include "ppr/edge_vars.h"

#include <cmath>
#include <string>

#include "common/logging.h"

namespace kgov::ppr {

Status SymbolicEipdOptions::Validate() const {
  KGOV_RETURN_IF_ERROR(eipd.Validate());
  if (!(min_path_mass >= 0.0) || !std::isfinite(min_path_mass)) {
    return Status::InvalidArgument(
        "SymbolicEipdOptions.min_path_mass must be finite and >= 0, got " +
        std::to_string(min_path_mass));
  }
  return Status::OK();
}

math::VarId EdgeVariableMap::GetOrRegister(graph::EdgeId edge) {
  auto [it, inserted] = edge_to_var_.try_emplace(
      edge, static_cast<math::VarId>(var_to_edge_.size()));
  if (inserted) {
    var_to_edge_.push_back(edge);
  }
  return it->second;
}

std::optional<math::VarId> EdgeVariableMap::Find(graph::EdgeId edge) const {
  auto it = edge_to_var_.find(edge);
  if (it == edge_to_var_.end()) return std::nullopt;
  return it->second;
}

graph::EdgeId EdgeVariableMap::EdgeOf(math::VarId var) const {
  KGOV_CHECK(var < var_to_edge_.size());
  return var_to_edge_[var];
}

std::vector<double> EdgeVariableMap::InitialValues(
    const graph::WeightedDigraph& graph) const {
  std::vector<double> values(var_to_edge_.size());
  for (size_t v = 0; v < var_to_edge_.size(); ++v) {
    values[v] = graph.Weight(var_to_edge_[v]);
  }
  return values;
}

void EdgeVariableMap::ApplyValues(const std::vector<double>& values,
                                  graph::WeightedDigraph* graph) const {
  KGOV_CHECK(values.size() == var_to_edge_.size());
  for (size_t v = 0; v < values.size(); ++v) {
    graph->SetWeight(var_to_edge_[v], values[v]);
  }
}

}  // namespace kgov::ppr
