#include "math/sgp_problem.h"

#include "common/logging.h"

namespace kgov::math {

VarId SgpProblem::AddVariable(double initial, double lo, double hi) {
  KGOV_CHECK(lo <= initial && initial <= hi)
      << "initial value " << initial << " outside [" << lo << ", " << hi
      << "]";
  VarId id = static_cast<VarId>(initial_.size());
  initial_.push_back(initial);
  bounds_.lower.push_back(lo);
  bounds_.upper.push_back(hi);
  return id;
}

void SgpProblem::AddConstraint(Signomial g, std::string label,
                               double weight) {
  KGOV_CHECK(weight > 0.0) << "constraint weight must be positive";
  constraints_.push_back(
      SgpConstraint{std::move(g), std::move(label), weight});
}

void SgpProblem::AddSigmoidTerm(Signomial s) {
  sigmoid_terms_.push_back(std::move(s));
}

void SgpProblem::SetInitial(std::vector<double> x0) {
  KGOV_CHECK(x0.size() == initial_.size())
      << "initial point size " << x0.size() << " != variable count "
      << initial_.size();
  if (anchor_.empty()) anchor_ = initial_;
  initial_ = std::move(x0);
  bounds_.Project(&initial_);
}

Status SgpProblem::Validate() const {
  const int64_t n = static_cast<int64_t>(num_variables());
  if (!anchor_.empty() && anchor_.size() != initial_.size()) {
    return Status::InvalidArgument("anchor size does not match variables");
  }
  for (size_t i = 0; i < initial_.size(); ++i) {
    if (bounds_.lower[i] > bounds_.upper[i]) {
      return Status::InvalidArgument("inverted bounds on variable " +
                                     std::to_string(i));
    }
  }
  for (const SgpConstraint& c : constraints_) {
    if (c.g.MaxVarId() >= n) {
      return Status::InvalidArgument("constraint '" + c.label +
                                     "' references undeclared variable");
    }
  }
  for (const Signomial& s : sigmoid_terms_) {
    if (s.MaxVarId() >= n) {
      return Status::InvalidArgument(
          "sigmoid term references undeclared variable");
    }
  }
  return Status::OK();
}

}  // namespace kgov::math
