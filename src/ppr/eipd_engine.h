// The unified extended-inverse-P-distance engine (paper SIV-A, Eq. 7-9).
//
//   Phi(vq, va) = sum over walks z : vq ~> va, |z| <= L of P[z]*c*(1-c)^|z|
//
// One driver computes it: internal::PropagatePhi, a level-synchronous
// truncated power iteration that scores every node of the view in one
// pass for one seed in one workspace. The engine serves the view's own
// weights; Phi at trial weights (the optimizer, the judgment filter) is
// ppr::EipdAdjoint's, over the same per-level primitives (SeedLane,
// AbsorbLane, AdvanceLane). The floating-point operation sequence is
// frozen - the serving-path bitwise gates (cache hits, batched serving)
// compare results with memcmp, and tests/test_eipd.cc pins a CRC-32C of
// the phi bytes.
//
// Answer index. A ranking reads Phi only at the answer nodes, so an
// engine may be given its answer set at construction, as EipdAdjoint is
// given its targets. It then indexes, once (internal::BuildTargetSlots,
// O(|V| + |E|)), the CSR slots whose head is an answer, and Rank and
// Scores walk only those on the hop into level L. Each answer's level-L
// sum is the same additions in the same CSR order, and no other node's
// level-L mass is read, so every ranking and score is bitwise what an
// engine without the set returns. Propagate promises every node's Phi, so
// it always walks the full last level. The index reads only the topology
// (offsets and heads, never weights), so engines over views of one
// topology - the epochs of one serving graph - share one index; such an
// engine takes it in O(1) (serve::QueryEngine builds one per engine).
//
// Per-query cost is O(touched nodes + traversed edges), independent of
// |V|: PropagationWorkspace keeps `phi`, `mass` and `next` alive across
// queries, logs every frontier it absorbs into phi, and the next query
// zeroes only those entries (or all of phi once the log reaches |V|).
// Nothing is pruned; every walk of length <= L contributes. Pass a
// workspace explicitly to reuse it across engines, or pass nullptr to use
// the thread's own (ThreadLocalWorkspace). docs/scale.md has the cost
// model.

#ifndef KGOV_PPR_EIPD_ENGINE_H_
#define KGOV_PPR_EIPD_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "ppr/query_seed.h"
#include "ppr/ranking.h"

namespace kgov::ppr {

struct EipdOptions {
  /// Maximum walk length L (number of edges, including the query's first
  /// hop). Paper default: 5.
  int max_length = 5;
  /// Restart probability c. Paper default: ~0.15.
  double restart = 0.15;

  /// OK iff the options describe a usable propagation: max_length >= 1 and
  /// restart in (0, 1). Consumers (EipdEngine, QaSystem,
  /// serve::QueryEngine) call this at construction; the message names the
  /// offending field.
  Status Validate() const;
};

/// Reusable per-query scratch buffers; capacity is retained, so repeated
/// queries on graphs of stable size allocate nothing. Not thread-safe: use
/// one workspace per thread (the engines default to
/// ThreadLocalWorkspace()).
///
/// Between queries the kernel leaves `next` all zero, `mass` nonzero only
/// on `frontier`, and `phi` nonzero only on `touched` - unless `touched`
/// holds n entries, the cap past which it stops growing. Prepare(n) relies
/// on exactly that to reset in O(touched) rather than O(n).
struct PropagationWorkspace {
  std::vector<double> phi;
  std::vector<double> mass;
  std::vector<double> next;
  std::vector<graph::NodeId> frontier;
  std::vector<graph::NodeId> next_frontier;
  /// Every frontier absorbed into phi since the last Prepare, in order
  /// (may contain duplicates), capped at phi.size() entries.
  std::vector<graph::NodeId> touched;

  /// Zeroes what the previous query left behind, or allocates n zeroed
  /// entries when n differs from the current size.
  void Prepare(size_t n) {
    if (phi.size() != n) {
      phi.assign(n, 0.0);
      mass.assign(n, 0.0);
      next.assign(n, 0.0);
    } else {
      if (touched.size() >= n) {
        std::fill(phi.begin(), phi.end(), 0.0);
      } else {
        for (graph::NodeId v : touched) phi[v] = 0.0;
      }
      for (graph::NodeId v : frontier) mass[v] = 0.0;
    }
    frontier.clear();
    next_frontier.clear();
    touched.clear();
  }

  /// Appends the current frontier to `touched`, up to the cap of n.
  void LogFrontier() {
    const size_t room = phi.size() - touched.size();
    const size_t count = std::min(room, frontier.size());
    touched.insert(touched.end(), frontier.begin(),
                   frontier.begin() + static_cast<std::ptrdiff_t>(count));
  }
};

/// The per-thread default workspace used when callers pass nullptr. Its
/// capacity is retained, so a thread that ranks steadily allocates
/// nothing.
PropagationWorkspace& ThreadLocalWorkspace();

namespace internal {

/// The answer index of a view: which nodes are targets, and each node's
/// CSR slots whose head is a target, in CSR order - node u's are
/// offsets[begin[u], begin[u + 1]), each an index into u's out-range.
struct TargetSlots {
  std::vector<char> is_target;
  std::vector<size_t> begin;
  std::vector<uint32_t> offsets;
};

/// Indexes `targets` (any order, duplicates allowed; each a node of
/// `view`) in one pass over the CSR: O(|V| + |E|) time, |V| bytes plus one
/// size_t per node and one uint32_t per slot into a target.
TargetSlots BuildTargetSlots(graph::GraphView view,
                             std::span<const graph::NodeId> targets);

/// OK iff `index` (sized to the view: |V| flags, |V| + 1 begins) lists
/// exactly the slots BuildTargetSlots over `view` would for its targets.
/// O(|V| + |E|).
Status CheckTargetSlots(graph::GraphView view, const TargetSlots& index);

/// Adjacency adapter over a GraphView (contiguous CSR ranges). With `only`
/// set, a node's out-edges are just the slots `only` lists for it.
struct ViewAdjacency {
  graph::GraphView view;
  const TargetSlots* only = nullptr;

  size_t NumNodes() const { return view.NumNodes(); }
  bool IsValidNode(graph::NodeId v) const { return view.IsValidNode(v); }
  size_t OutDegree(graph::NodeId u) const {
    return only == nullptr ? view.OutDegree(u)
                           : only->begin[u + 1] - only->begin[u];
  }

  template <typename Fn>
  void ForEachOut(graph::NodeId u, Fn&& fn) const {
    if (only == nullptr) {
      for (const graph::GraphView::Neighbor* it = view.begin(u);
           it != view.end(u); ++it) {
        fn(it->to, it->weight);
      }
      return;
    }
    const graph::GraphView::Neighbor* b = view.begin(u);
    for (size_t i = only->begin[u]; i < only->begin[u + 1]; ++i) {
      const graph::GraphView::Neighbor& edge = b[only->offsets[i]];
      fn(edge.to, edge.weight);
    }
  }
};

// --- Per-lane primitives ---------------------------------------------
// One lane = one seed's propagation state in its own workspace. The
// driver (PropagatePhi) and the adjoint's forward pass (EipdAdjoint) run
// a seed through exactly these steps, so both see the same floating-point
// operation sequence.

/// Level 1: the query's first hop.
template <typename Adjacency>
void SeedLane(const Adjacency& adj, const QuerySeed& seed,
              PropagationWorkspace* ws) {
  ws->Prepare(adj.NumNodes());
  for (const auto& [node, weight] : seed.links) {
    KGOV_DCHECK(adj.IsValidNode(node));
    if (weight <= 0.0) continue;
    if (ws->mass[node] == 0.0) ws->frontier.push_back(node);
    ws->mass[node] += weight;
  }
}

/// Absorbs the current level's mass into phi at the given decay
/// c*(1-c)^len, and logs the frontier for the next query's reset.
inline void AbsorbLane(PropagationWorkspace* ws, double decay) {
  for (graph::NodeId v : ws->frontier) {
    ws->phi[v] += ws->mass[v] * decay;
  }
  ws->LogFrontier();
}

/// Pushes the lane's mass one level along the out-edges. Every pushed
/// head is written to the next frontier, whose cursor advances only when
/// the head's `next` entry was still zero, so the append takes no branch.
/// The buffer grows by each source's out-degree (Adjacency::OutDegree
/// bounds the heads ForEachOut visits) before its edges are read.
template <typename Adjacency>
void AdvanceLane(const Adjacency& adj, PropagationWorkspace* ws) {
  std::vector<double>& next = ws->next;
  std::vector<graph::NodeId>& out = ws->next_frontier;
  size_t count = 0;
  for (graph::NodeId u : ws->frontier) {
    const size_t need = count + adj.OutDegree(u);
    if (need > out.size()) out.resize(std::max(need, 2 * out.size()));
    graph::NodeId* slots = out.data();
    const double m = ws->mass[u];
    adj.ForEachOut(u, [&](graph::NodeId to, double w) {
      if (w <= 0.0) return;
      slots[count] = to;
      count += next[to] == 0.0;
      next[to] += m * w;
    });
    ws->mass[u] = 0.0;
  }
  out.resize(count);
  // A head enters the frontier when its `next` entry is zero before the
  // add, so it appears twice only when m * w underflowed to zero on an
  // earlier edge into it. Every nonzero mass entry sat on the frontier
  // and was zeroed above, so after the swap `next` is all zero again.
  ws->mass.swap(ws->next);
  ws->frontier.swap(out);
}

/// THE propagation driver: level-synchronous mass propagation (a
/// truncated power iteration over the walk length), yielding the scores
/// of *all* nodes in one pass - the property behind the paper's Table VI
/// efficiency result. Walks longer than L are dropped (SIV-A; L = 5 in the
/// paper's experiments, justified by Fig. 7). The result lands in
/// ws->phi. With `last_hop` set, the hop into level L walks only the slots
/// it lists, so ws->phi is exact only on its targets: each target's
/// level-L sum is the same additions in the same order.
template <typename Adjacency>
void PropagatePhi(const Adjacency& adj, const QuerySeed& seed,
                  const EipdOptions& options, PropagationWorkspace* ws,
                  const TargetSlots* last_hop = nullptr) {
  const double c = options.restart;
  SeedLane(adj, seed, ws);
  double decay = c * (1.0 - c);  // c*(1-c)^len for len = 1
  for (int len = 1; len < options.max_length; ++len) {
    AbsorbLane(ws, decay);
    if (len + 1 == options.max_length && last_hop != nullptr) {
      Adjacency into_targets = adj;
      into_targets.only = last_hop;
      AdvanceLane(into_targets, ws);
    } else {
      AdvanceLane(adj, ws);
    }
    decay *= 1.0 - c;
  }
  // The final level is absorbed, never advanced.
  AbsorbLane(ws, decay);
}

}  // namespace internal

/// THE documented EIPD evaluator: numeric EIPD evaluation over a
/// GraphView. The view's backing storage (e.g. a graph::CsrSnapshot) must
/// outlive the engine. Thread-compatible:
/// concurrent calls on one instance are safe as long as each thread uses
/// its own workspace (the default).
///
/// All entry points (Propagate, Scores, Rank) return StatusOr<T> and
/// reject malformed seeds/candidates with InvalidArgument instead of
/// asserting; there is no unchecked API. Code that held a raw phi
/// reference should use the checked Propagate() and keep the returned
/// vector.
class EipdEngine {
 public:
  /// `answers` (empty: every node) are the nodes Rank and Scores may be
  /// asked about; each must be a node of the view. A non-empty set is
  /// indexed here, once, and Rank and Scores then walk only the slots into
  /// it on the hop into level L (see the header comment).
  explicit EipdEngine(graph::GraphView view, EipdOptions options = {},
                      std::span<const graph::NodeId> answers = {});

  /// An engine whose answer set is the one `answer_index` (non-null)
  /// indexes, built by internal::BuildTargetSlots over a view of the same
  /// topology as `view`: the same nodes, and every node's out-edges to the
  /// same heads in the same CSR order (weights may differ). Takes the
  /// index in O(1). CHECKs that the index covers the view's nodes and no
  /// more slots than its edges; debug builds also check every slot
  /// against the view.
  EipdEngine(graph::GraphView view, EipdOptions options,
             std::shared_ptr<const internal::TargetSlots> answer_index);

  const EipdOptions& options() const { return options_; }
  const graph::GraphView& view() const { return view_; }

  /// OK iff every seed link names a valid node of the view with a finite,
  /// non-negative weight. The error message names the offending link.
  Status ValidateSeed(const QuerySeed& seed) const;

  /// One propagation pass over the full last level; returns Phi(seed, v)
  /// for every node v of the view, whatever the answer set. Pass a
  /// workspace to reuse scratch across calls (the returned vector is an
  /// independent copy either way).
  StatusOr<std::vector<double>> Propagate(
      const QuerySeed& seed, PropagationWorkspace* ws = nullptr) const;

  /// Phi(seed, a) for every a in `answers`, in one propagation pass.
  /// InvalidArgument for a node outside the view or the answer set.
  StatusOr<std::vector<double>> Scores(
      const QuerySeed& seed, const std::vector<graph::NodeId>& answers,
      PropagationWorkspace* ws = nullptr) const;

  /// Top-k candidates sorted by descending score, ties by ascending node
  /// id (rankings are deterministic). InvalidArgument for a candidate
  /// outside the view or the answer set.
  StatusOr<std::vector<ScoredAnswer>> Rank(
      const QuerySeed& seed, const std::vector<graph::NodeId>& candidates,
      size_t k, PropagationWorkspace* ws = nullptr) const;

 private:
  /// The one kernel invocation every entry point funnels through: runs
  /// PropagatePhi on `ws` (the thread's workspace when null), its last hop
  /// restricted to `last_hop` when set, records telemetry and returns the
  /// workspace's phi vector.
  const std::vector<double>& PropagateInto(
      const QuerySeed& seed, PropagationWorkspace* ws,
      const internal::TargetSlots* last_hop) const;

  /// The answer index, or null when the engine has no answer set.
  const internal::TargetSlots* AnswerIndex() const {
    return answer_index_.get();
  }

  graph::GraphView view_;
  EipdOptions options_;
  /// Null when the engine has no answer set; may be shared with engines
  /// over other views of the same topology.
  std::shared_ptr<const internal::TargetSlots> answer_index_;
};

}  // namespace kgov::ppr

#endif  // KGOV_PPR_EIPD_ENGINE_H_
