#include "math/sgp_problem.h"

#include <algorithm>

#include "common/logging.h"

namespace kgov::math {

size_t SignomialConstraints::num_variables() const {
  int64_t max_var = -1;
  for (const SgpConstraint& c : constraints_) {
    max_var = std::max(max_var, c.g.MaxVarId());
  }
  return static_cast<size_t>(max_var + 1);
}

void SignomialConstraints::Evaluate(const std::vector<double>& x,
                                    std::vector<double>* values,
                                    const Cotangent* cotangent,
                                    std::vector<double>* grad) const {
  values->resize(constraints_.size());
  for (size_t i = 0; i < constraints_.size(); ++i) {
    const Signomial& g = constraints_[i].g;
    (*values)[i] = g.Evaluate(x);
    if (grad == nullptr) continue;
    const double weight = (*cotangent)(i, (*values)[i]);
    if (weight != 0.0) g.AccumulateGradient(x, weight, grad);
  }
}

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
  KGOV_CHECK(external_ == nullptr)
      << "AddConstraint after SetConstraints attached a constraint set";
  signomial_.Add(SgpConstraint{std::move(g), std::move(label), weight});
}

void SgpProblem::SetConstraints(
    std::shared_ptr<const SgpConstraints> constraints) {
  KGOV_CHECK(constraints != nullptr);
  KGOV_CHECK(signomial_.size() == 0)
      << "SetConstraints would drop the signomial constraints";
  external_ = std::move(constraints);
}

const std::vector<Signomial>& SgpProblem::sigmoid_terms() const {
  static const std::vector<Signomial> kNone;
  return kNone;
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
  for (const SgpConstraint& c : signomial_.constraints()) {
    if (c.g.MaxVarId() >= n) {
      return Status::InvalidArgument("constraint '" + c.label +
                                     "' references undeclared variable");
    }
  }
  if (external_ != nullptr && external_->num_variables() > initial_.size()) {
    return Status::InvalidArgument(
        "constraint set reads " + std::to_string(external_->num_variables()) +
        " variables, problem declares " + std::to_string(initial_.size()));
  }
  return Status::OK();
}

}  // namespace kgov::math
