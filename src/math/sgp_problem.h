// Signomial geometric program representation (paper Eq. 2/3).
//
// A problem holds box-bounded variables (the optimizable edge weights, plus
// any auxiliary deviation variables), signomial inequality constraints in
// the normalized form g_i(x) <= 0, and an objective assembled from:
//   * a proximal term  lambda1 * sum_i (x_i - anchor_i)^2   (Eq. 12), and
//   * sigmoid penalties lambda2 * sum_j sigmoid(w * s_j(x)) (Eq. 18/19),
// where each s_j is itself a signomial.

#ifndef KGOV_MATH_SGP_PROBLEM_H_
#define KGOV_MATH_SGP_PROBLEM_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "math/optimizer.h"
#include "math/signomial.h"

namespace kgov::math {

/// One inequality constraint g(x) <= 0, with an optional label for
/// diagnostics ("vote 12, answer 3 vs best") and a relative importance
/// weight (vote trust/multiplicity; scales the constraint's sigmoid
/// penalty in the soft formulations).
struct SgpConstraint {
  Signomial g;
  std::string label;
  double weight = 1.0;
};

/// Mutable builder for a signomial program.
class SgpProblem {
 public:
  SgpProblem() = default;

  /// Adds a variable with initial value and box bounds; returns its id.
  /// Requires lo <= initial <= hi.
  VarId AddVariable(double initial, double lo, double hi);

  /// Adds constraint g(x) <= 0 with importance `weight` (> 0). Variables
  /// referenced by `g` must exist.
  void AddConstraint(Signomial g, std::string label = "", double weight = 1.0);

  /// Adds a sigmoid penalty term sigmoid(w * s(x)) to the objective.
  void AddSigmoidTerm(Signomial s);

  /// Sets the proximal anchor (defaults to the initial values). Must match
  /// the variable count at solve time.
  void SetAnchor(std::vector<double> anchor) { anchor_ = std::move(anchor); }

  /// Replaces the initial point (projected into the box). Used by the
  /// resilience layer to restart a failed solve from a jittered point
  /// while keeping the anchor (and thus the proximal objective) intact.
  /// Requires x0.size() == num_variables(). NOTE: when no explicit anchor
  /// was set, the anchor is pinned to the *old* initial values first, so
  /// the restart still minimizes distance from the original weights.
  void SetInitial(std::vector<double> x0);

  size_t num_variables() const { return initial_.size(); }
  const std::vector<double>& initial() const { return initial_; }
  const std::vector<double>& anchor() const {
    return anchor_.empty() ? initial_ : anchor_;
  }
  const BoxBounds& bounds() const { return bounds_; }
  const std::vector<SgpConstraint>& constraints() const {
    return constraints_;
  }
  const std::vector<Signomial>& sigmoid_terms() const {
    return sigmoid_terms_;
  }

  /// Validates internal consistency (variable ids in range, bounds sane).
  Status Validate() const;

 private:
  std::vector<double> initial_;
  std::vector<double> anchor_;
  BoxBounds bounds_;
  std::vector<SgpConstraint> constraints_;
  std::vector<Signomial> sigmoid_terms_;
};

}  // namespace kgov::math

#endif  // KGOV_MATH_SGP_PROBLEM_H_
