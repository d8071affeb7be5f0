// Vote-to-vote similarity (paper Eq. 20): the Jaccard overlap of the edge
// sets each vote's similarity evaluation touches. Votes whose walks share
// many edges conflict-interact and belong in the same SGP sub-problem.

#ifndef KGOV_CLUSTER_VOTE_SIMILARITY_H_
#define KGOV_CLUSTER_VOTE_SIMILARITY_H_

#include <vector>

#include "graph/graph.h"

namespace kgov::cluster {

/// An edge set as a sorted vector of unique edge ids (what
/// votes::VoteEdgeSets returns).
using EdgeSet = std::vector<graph::EdgeId>;

/// Jaccard similarity |a n b| / |a u b| of two sorted edge sets; 0 when
/// both are empty.
double JaccardSimilarity(const EdgeSet& a, const EdgeSet& b);

/// Dense symmetric similarity matrix over votes' associated edge sets
/// (diagonal = 1).
std::vector<std::vector<double>> VoteSimilarityMatrix(
    const std::vector<EdgeSet>& vote_edges);

}  // namespace kgov::cluster

#endif  // KGOV_CLUSTER_VOTE_SIMILARITY_H_
