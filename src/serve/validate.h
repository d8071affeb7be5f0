// Serving-side contract checks.
//
// The serving read path hands frozen epochs (core::ServingEpoch) to query
// workers. ValidateEpochPin checks the invariants a pinned epoch must
// satisfy before a worker serves from it: a live snapshot, an epoch number
// that has not moved backwards relative to what the caller already
// observed, and a structurally sound CSR view (graph::ValidateCsr).
//
// QueryEngine::ServeGroup runs this under KGOV_DCHECK_OK, so the check is
// free in release builds and honors contracts::CheckMode in debug builds.

#ifndef KGOV_SERVE_VALIDATE_H_
#define KGOV_SERVE_VALIDATE_H_

#include <cstdint>

#include "common/status.h"
#include "core/online_optimizer.h"

namespace kgov::serve {

/// Checks that `epoch` is servable: non-null snapshot, epoch number at
/// least `min_expected_epoch` (pass the last epoch number the caller
/// observed; epochs only move forward), and a CSR view that passes
/// graph::ValidateCsr. Returns Internal/FailedPrecondition naming the
/// violated invariant.
Status ValidateEpochPin(const core::ServingEpoch& epoch,
                        uint64_t min_expected_epoch = 0);

}  // namespace kgov::serve

#endif  // KGOV_SERVE_VALIDATE_H_
