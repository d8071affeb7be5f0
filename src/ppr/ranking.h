// Shared answer-ranking helpers: the one ranking order used by every
// ranking path (EIPD engine, the compatibility evaluators, and the Q&A
// baselines). Rankings are deterministic: descending score, ties broken by
// ascending id, truncated to k. TopKByScore is the top-k over a score
// vector that every EIPD ranking takes; SortRankedTruncate ranks any other
// entry type.

#ifndef KGOV_PPR_RANKING_H_
#define KGOV_PPR_RANKING_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace kgov::ppr {

/// A ranked answer.
struct ScoredAnswer {
  graph::NodeId node = graph::kInvalidNode;
  double score = 0.0;
};

/// Keeps the top k of `entries` by descending score with ties broken by
/// ascending id, in that order. `score_of` / `id_of` project an entry to
/// its score and its tie-break id. The order is total, so selecting the
/// first k with a partial sort (O(n log k)) yields exactly the first k of
/// a full sort.
template <typename Entry, typename ScoreFn, typename IdFn>
void SortRankedTruncate(std::vector<Entry>* entries, size_t k,
                        ScoreFn score_of, IdFn id_of) {
  auto ranks_before = [&](const Entry& a, const Entry& b) {
    const double sa = score_of(a);
    const double sb = score_of(b);
    if (sa != sb) return sa > sb;
    return id_of(a) < id_of(b);
  };
  if (k >= entries->size()) {
    std::sort(entries->begin(), entries->end(), ranks_before);
    return;
  }
  const auto middle = entries->begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(entries->begin(), middle, entries->end(), ranks_before);
  entries->erase(middle, entries->end());
}

/// The ranking order of ScoredAnswers: descending score, ties by
/// ascending node id. Scores compare as doubles, so -0.0 and +0.0 tie.
inline bool RanksBefore(const ScoredAnswer& a, const ScoredAnswer& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.node < b.node;
}

/// Public top-k entry point: ranks `candidates` by their scores in `phi`
/// (a full per-node score vector, e.g. a propagation result) in
/// RanksBefore order, truncated to k. Returns InvalidArgument naming the
/// first offending candidate when one is outside [0, phi.size()), or when
/// `scored` (a mask by node of where phi is exact; null: everywhere) does
/// not mark it.
///
/// With k < |candidates| it is one threshold pass that keeps the best k
/// seen so far in a sorted buffer: a candidate scoring strictly below the
/// k-th is skipped after one compare, and any other is inserted when it
/// ranks before the k-th. The order is total, so the result is the first
/// k of a full sort. Otherwise every candidate is collected and sorted.
inline StatusOr<std::vector<ScoredAnswer>> TopKByScore(
    const std::vector<double>& phi,
    const std::vector<graph::NodeId>& candidates, size_t k,
    const std::vector<char>* scored = nullptr) {
  auto valid = [&](graph::NodeId node) {
    return node < phi.size() && (scored == nullptr || (*scored)[node]);
  };
  // Names candidates[i], which `valid` refused.
  auto invalid = [&](size_t i) {
    std::string message = "candidates[" + std::to_string(i) + "] = " +
                          std::to_string(candidates[i]);
    message += candidates[i] >= phi.size()
                   ? " is outside the scored node range [0, " +
                         std::to_string(phi.size()) + ")"
                   : std::string(" is not in the engine's answer set");
    return Status::InvalidArgument(message);
  };
  std::vector<ScoredAnswer> ranked;
  if (k >= candidates.size()) {
    ranked.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!valid(candidates[i])) return invalid(i);
      ranked[i] = ScoredAnswer{candidates[i], phi[candidates[i]]};
    }
    SortRankedTruncate(
        &ranked, k, [](const ScoredAnswer& a) { return a.score; },
        [](const ScoredAnswer& a) { return a.node; });
    return ranked;
  }
  ranked.reserve(k + 1);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!valid(candidates[i])) return invalid(i);
    const ScoredAnswer entry{candidates[i], phi[candidates[i]]};
    if (ranked.size() == k &&
        (k == 0 || entry.score < ranked.back().score ||
         !RanksBefore(entry, ranked.back()))) {
      continue;
    }
    ranked.insert(
        std::upper_bound(ranked.begin(), ranked.end(), entry, RanksBefore),
        entry);
    if (ranked.size() > k) ranked.pop_back();
  }
  return ranked;
}

}  // namespace kgov::ppr

#endif  // KGOV_PPR_RANKING_H_
