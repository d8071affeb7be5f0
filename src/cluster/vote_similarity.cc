#include "cluster/vote_similarity.h"

namespace kgov::cluster {

double JaccardSimilarity(const EdgeSet& a, const EdgeSet& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t intersection = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++intersection;
      ++ia;
      ++ib;
    }
  }
  size_t union_size = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) /
         static_cast<double>(union_size);
}

std::vector<std::vector<double>> VoteSimilarityMatrix(
    const std::vector<EdgeSet>& vote_edges) {
  const size_t n = vote_edges.size();
  std::vector<std::vector<double>> sim(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    sim[i][i] = 1.0;
    for (size_t j = i + 1; j < n; ++j) {
      double s = JaccardSimilarity(vote_edges[i], vote_edges[j]);
      sim[i][j] = s;
      sim[j][i] = s;
    }
  }
  return sim;
}

}  // namespace kgov::cluster
