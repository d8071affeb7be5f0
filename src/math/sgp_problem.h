// Signomial geometric program representation (paper Eq. 2/3).
//
// A problem holds box-bounded variables (the optimizable edge weights),
// inequality constraints in the normalized form g_i(x) <= 0, and a
// proximal anchor. The solver assembles its objective from
//   * a proximal term  lambda1 * sum_i (x_i - anchor_i)^2   (Eq. 12), and
//   * sigmoid penalties lambda2 * sum_i weight_i * sigmoid(w * g_i(x))
//     (Eq. 18/19).
//
// The constraints are one SgpConstraints object: a vector of values plus
// one vector-Jacobian product per evaluation. Two implementations exist:
// SignomialConstraints (explicit signomials, built by AddConstraint) and
// votes::VoteProgram (adjoint EIPD propagation, attached with
// SetConstraints).

#ifndef KGOV_MATH_SGP_PROBLEM_H_
#define KGOV_MATH_SGP_PROBLEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "math/optimizer.h"
#include "math/signomial.h"

namespace kgov::math {

/// A program's constraints g_i(x) <= 0, each with a relative importance
/// weight (vote trust/multiplicity; scales the constraint's sigmoid
/// penalty in the soft formulations).
class SgpConstraints : public ConstraintSet {
 public:
  virtual double weight(size_t i) const = 0;

  /// Number of leading variables the constraints read; x must have at
  /// least this many entries.
  virtual size_t num_variables() const = 0;
};

/// One signomial inequality constraint g(x) <= 0, with an optional label
/// for diagnostics ("vote 12, answer 3 vs best").
struct SgpConstraint {
  Signomial g;
  std::string label;
  double weight = 1.0;
};

/// Constraints given as explicit signomials.
class SignomialConstraints final : public SgpConstraints {
 public:
  const std::vector<SgpConstraint>& constraints() const {
    return constraints_;
  }
  void Add(SgpConstraint constraint) {
    constraints_.push_back(std::move(constraint));
  }

  size_t size() const override { return constraints_.size(); }
  double weight(size_t i) const override { return constraints_[i].weight; }
  size_t num_variables() const override;
  void Evaluate(const std::vector<double>& x, std::vector<double>* values,
                const Cotangent* cotangent,
                std::vector<double>* grad) const override;

 private:
  std::vector<SgpConstraint> constraints_;
};

/// Mutable builder for a signomial program.
class SgpProblem {
 public:
  SgpProblem() = default;

  /// Adds a variable with initial value and box bounds; returns its id.
  /// Requires lo <= initial <= hi.
  VarId AddVariable(double initial, double lo, double hi);

  /// Adds signomial constraint g(x) <= 0 with importance `weight` (> 0).
  /// Variables referenced by `g` must exist. Not allowed once
  /// SetConstraints attached another implementation.
  void AddConstraint(Signomial g, std::string label = "", double weight = 1.0);

  /// Replaces the signomial constraints with `constraints` (shared, so
  /// copies of the problem share one program).
  void SetConstraints(std::shared_ptr<const SgpConstraints> constraints);

  /// Sets the proximal anchor (defaults to the initial values). Must match
  /// the variable count at solve time.
  void SetAnchor(std::vector<double> anchor) { anchor_ = std::move(anchor); }

  /// Replaces the initial point (projected into the box) while keeping the
  /// anchor (and thus the proximal objective) intact, so a solve can start
  /// away from the current weights. Requires x0.size() == num_variables().
  /// NOTE: when no explicit anchor was set, the anchor is pinned to the
  /// *old* initial values first, so the new start still minimizes distance
  /// from the original weights.
  void SetInitial(std::vector<double> x0);

  size_t num_variables() const { return initial_.size(); }
  const std::vector<double>& initial() const { return initial_; }
  const std::vector<double>& anchor() const {
    return anchor_.empty() ? initial_ : anchor_;
  }
  const BoxBounds& bounds() const { return bounds_; }

  /// The constraints every formulation solves against.
  const SgpConstraints& constraint_set() const {
    return external_ ? *external_ : signomial_;
  }
  size_t num_constraints() const { return constraint_set().size(); }

  /// The signomial constraints added by AddConstraint (empty when
  /// SetConstraints attached another implementation).
  const std::vector<SgpConstraint>& constraints() const {
    return signomial_.constraints();
  }
  /// Standalone sigmoid terms: none. Kept, always empty, for callers that
  /// count a program's terms.
  const std::vector<Signomial>& sigmoid_terms() const;

  /// Validates internal consistency (variable ids in range, bounds sane).
  Status Validate() const;

 private:
  std::vector<double> initial_;
  std::vector<double> anchor_;
  BoxBounds bounds_;
  SignomialConstraints signomial_;
  std::shared_ptr<const SgpConstraints> external_;
};

}  // namespace kgov::math

#endif  // KGOV_MATH_SGP_PROBLEM_H_
