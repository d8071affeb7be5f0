// EpochDelta: what changed between two consecutive serving epochs.
//
// For each ServingEpoch it publishes, the optimizer records the set of
// partition clusters (stream::GraphPartition) whose edge weights differ
// bitwise from the previous epoch (OnlineKgOptimizer::
// CollectChangedClusters reads the records back). The serve side uses the
// set for selective cache invalidation: a cached ranking whose dependency
// ball misses every changed cluster is still bitwise-valid on the new
// epoch. A missing record (the initial or a restored epoch, or one
// trimmed from the history) means "anything may have changed" and forces
// the conservative wholesale flush.

#ifndef KGOV_STREAM_EPOCH_DELTA_H_
#define KGOV_STREAM_EPOCH_DELTA_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kgov::stream {

struct EpochDelta {
  /// Clusters whose edge weights changed, sorted ascending, unique.
  std::vector<uint32_t> changed_clusters;
};

/// True when the two sorted ascending ranges share an element.
inline bool ClustersIntersect(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

/// Sorts and deduplicates a cluster set in place (the canonical form
/// EpochDelta and the cache dependency lists use).
inline void CanonicalizeClusterSet(std::vector<uint32_t>* clusters) {
  std::sort(clusters->begin(), clusters->end());
  clusters->erase(std::unique(clusters->begin(), clusters->end()),
                  clusters->end());
}

}  // namespace kgov::stream

#endif  // KGOV_STREAM_EPOCH_DELTA_H_
