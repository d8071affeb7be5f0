#include "cluster/affinity_propagation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "math/stats.h"
#include <string>

namespace kgov::cluster {

namespace {

// Message damping factor, iteration cap, and the number of consecutive
// iterations with an unchanged exemplar set that counts as converged.
constexpr double kDamping = 0.8;
constexpr int kMaxIterations = 400;
constexpr int kConvergenceWindow = 30;

}  // namespace

Status ApOptions::Validate() const {
  // NaN selects the median-preference default; infinity is never valid.
  if (std::isinf(preference)) {
    return Status::InvalidArgument(
        "ApOptions.preference must be finite or NaN, got " +
        std::to_string(preference));
  }
  return Status::OK();
}

Result<ApResult> AffinityPropagation(
    const std::vector<std::vector<double>>& similarity,
    const ApOptions& options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  const size_t n = similarity.size();
  if (n == 0) {
    return Status::InvalidArgument("empty similarity matrix");
  }
  for (const auto& row : similarity) {
    if (row.size() != n) {
      return Status::InvalidArgument("similarity matrix is not square");
    }
  }
  if (n == 1) {
    ApResult single;
    single.labels = {0};
    single.exemplars = {0};
    single.converged = true;
    return single;
  }

  // Working similarity matrix with the preference on the diagonal.
  double preference = options.preference;
  if (std::isnan(preference)) {
    std::vector<double> off_diagonal;
    off_diagonal.reserve(n * (n - 1));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i != j) off_diagonal.push_back(similarity[i][j]);
      }
    }
    preference = math::Median(std::move(off_diagonal));
  }
  std::vector<std::vector<double>> s = similarity;
  for (size_t i = 0; i < n; ++i) s[i][i] = preference;

  // Degeneracy breaking (Frey & Dueck): on exactly symmetric inputs the
  // messages settle at r(k,k) + a(k,k) == 0 for every k and no exemplar
  // emerges. Add tiny deterministic jitter well below any meaningful
  // similarity difference.
  double spread = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      spread = std::max(spread, std::fabs(s[i][j]));
    }
  }
  if (spread == 0.0) spread = 1.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      // splitmix-style hash of (i, j) -> [0, 1).
      uint64_t h = (static_cast<uint64_t>(i) << 32) ^ j ^ 0x9E3779B97F4A7C15ull;
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 27;
      double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      s[i][j] += 1e-9 * spread * u;
    }
  }

  std::vector<std::vector<double>> r(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));

  const double lambda = kDamping;
  std::vector<char> exemplar_flags(n, 0);
  int stable_rounds = 0;
  int iter = 0;
  bool converged = false;

  for (; iter < kMaxIterations; ++iter) {
    // Responsibilities: r(i,k) <- s(i,k) - max_{k' != k} (a(i,k')+s(i,k')).
    for (size_t i = 0; i < n; ++i) {
      // Track best and second-best of a+s over k'.
      double best = -std::numeric_limits<double>::infinity();
      double second = best;
      size_t best_k = 0;
      for (size_t k = 0; k < n; ++k) {
        double v = a[i][k] + s[i][k];
        if (v > best) {
          second = best;
          best = v;
          best_k = k;
        } else if (v > second) {
          second = v;
        }
      }
      for (size_t k = 0; k < n; ++k) {
        double competing = (k == best_k) ? second : best;
        double fresh = s[i][k] - competing;
        r[i][k] = lambda * r[i][k] + (1.0 - lambda) * fresh;
      }
    }

    // Availabilities: a(i,k) <- min(0, r(k,k) + sum_{i' not in {i,k}}
    // max(0, r(i',k))); a(k,k) <- sum_{i' != k} max(0, r(i',k)).
    for (size_t k = 0; k < n; ++k) {
      double positive_sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (i != k) positive_sum += std::max(0.0, r[i][k]);
      }
      for (size_t i = 0; i < n; ++i) {
        double fresh;
        if (i == k) {
          fresh = positive_sum;
        } else {
          double without_i = positive_sum - std::max(0.0, r[i][k]);
          fresh = std::min(0.0, r[k][k] + without_i);
        }
        a[i][k] = lambda * a[i][k] + (1.0 - lambda) * fresh;
      }
    }

    // Exemplar set: k with r(k,k)+a(k,k) > 0.
    std::vector<char> flags(n, 0);
    bool any = false;
    for (size_t k = 0; k < n; ++k) {
      if (r[k][k] + a[k][k] > 0.0) {
        flags[k] = 1;
        any = true;
      }
    }
    if (any && flags == exemplar_flags) {
      if (++stable_rounds >= kConvergenceWindow) {
        converged = true;
        ++iter;
        break;
      }
    } else {
      stable_rounds = 0;
      exemplar_flags = flags;
    }
  }

  // Collect exemplars; fall back to the single best self-score if none
  // emerged (can happen with very low preference).
  std::vector<size_t> exemplars;
  for (size_t k = 0; k < n; ++k) {
    if (exemplar_flags[k]) exemplars.push_back(k);
  }
  if (exemplars.empty()) {
    size_t best_k = 0;
    double best = -std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < n; ++k) {
      double v = r[k][k] + a[k][k];
      if (v > best) {
        best = v;
        best_k = k;
      }
    }
    exemplars.push_back(best_k);
  }

  // Assign every item to its most similar exemplar (exemplars to
  // themselves).
  ApResult result;
  result.labels.assign(n, 0);
  result.exemplars = exemplars;
  for (size_t i = 0; i < n; ++i) {
    int best_c = 0;
    double best = -std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < exemplars.size(); ++c) {
      if (exemplars[c] == i) {
        best_c = static_cast<int>(c);
        break;
      }
      if (s[i][exemplars[c]] > best) {
        best = s[i][exemplars[c]];
        best_c = static_cast<int>(c);
      }
    }
    result.labels[i] = best_c;
  }
  result.iterations = iter;
  result.converged = converged;
  return result;
}

}  // namespace kgov::cluster
