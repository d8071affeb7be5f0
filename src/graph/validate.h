// Structural validation of CSR views.
//
// A GraphView borrows raw arrays; nothing in the type system stops a
// backing store from handing it inconsistent offsets, out-of-range
// targets, or a corrupted edge-id remap. ValidateCsr checks the
// structural invariants every read-side consumer assumes:
//
//  * offsets are monotone (begin(v) <= end(v)) and contiguous
//    (end(v) == begin(v+1)), with the neighbor total matching NumEdges();
//  * every neighbor target is a valid node id of the view;
//  * every weight is finite and non-negative;
//  * when the view carries an edge-id table, the remap is injective (no
//    CSR slot aliases another slot's originating edge), so an EdgeId-keyed
//    variable index cannot silently hit two slots.
//
// Row order is NOT checked: CsrSnapshot preserves insertion order within a
// row by design (see graph/csr.h), and consumers iterate ranges rather than
// binary-searching them.
//
// Debug builds run ValidateCsr on every non-empty GraphView constructed
// from raw arrays (see the GraphView constructor); the check honors
// contracts::CheckMode, so soft-mode processes log-and-count instead of
// aborting. Release builds (NDEBUG) compile the hook out entirely.

#ifndef KGOV_GRAPH_VALIDATE_H_
#define KGOV_GRAPH_VALIDATE_H_

#include "common/status.h"
#include "graph/graph_view.h"

namespace kgov::graph {

/// Checks the CSR structural invariants above. Returns OK for the empty
/// view; otherwise Internal naming the first violated invariant and the
/// offending node/slot. Cost: O(nodes + edges) plus a hash set over the
/// edge-id table when present.
Status ValidateCsr(const GraphView& view);

}  // namespace kgov::graph

#endif  // KGOV_GRAPH_VALIDATE_H_
