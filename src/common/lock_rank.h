// Runtime lock-order instrumentation: the hook layer between the
// annotated mutex wrappers (common/thread_annotations.h) and the two
// concurrency-correctness subsystems that observe every acquisition in
// lock-debug builds (KGOV_LOCK_DEBUG, default ON; compiled out entirely
// when OFF):
//
//  * the lock-rank deadlock detector (kgov::lockrank, this header +
//    lock_rank.cc): a per-thread held-lock stack checked against the
//    static rank table in common/lock_ranks.h, plus a process-wide
//    acquired-after graph whose cycles flag deadlock POTENTIAL even when
//    the scheduler never produced the deadly interleaving;
//  * the deterministic schedule explorer (kgov::sched, common/sched.h):
//    lock acquire/release, condvar wait/notify and fault-injection sites
//    are its yield points.
//
// Fast path: with neither subsystem armed, every hook is one relaxed
// atomic load and a predicted-not-taken branch - the same dormant-check
// pattern as common/fault_injection.h, cheap enough to stay compiled into
// test and benchmark builds (tools/ci/check.sh gates the overhead at 2%).
//
// Violations fire through the contracts layer (common/contracts.h):
// kAbort mode logs FATAL with both stacks and aborts; kSoftCount logs
// ERROR, increments contracts::LockOrderViolationCount(), and telemetry
// mirrors it as the `contracts.lock_order_violations` counter.

#ifndef KGOV_COMMON_LOCK_RANK_H_
#define KGOV_COMMON_LOCK_RANK_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/lock_ranks.h"

namespace kgov::lockinstr {

/// Type-erased operations on a native lock handle, so one hook layer can
/// drive std::mutex (exclusive) and SharedMutex's reader-writer lock
/// (exclusive and shared) without templates leaking into lock_rank.cc.
struct NativeLockOps {
  void* handle = nullptr;
  void (*lock)(void*) = nullptr;
  bool (*try_lock)(void*) = nullptr;
  void (*unlock)(void*) = nullptr;
};

/// Bitmask of armed observers; nonzero sends lock operations down the
/// slow path. Internal - use Active().
inline constexpr uint32_t kRankTrackingBit = 1u;
inline constexpr uint32_t kExplorerBit = 2u;
extern std::atomic<uint32_t> g_active;

/// One relaxed load: is any observer armed?
inline bool Active() {
  return g_active.load(std::memory_order_relaxed) != 0;
}

/// Slow-path acquire: rank + cycle checks, explorer-mediated scheduling
/// for registered threads, then the real (native) lock. `id` is the
/// wrapper mutex's address (its identity in stacks and the graph).
void Acquire(const void* id, lockrank::Rank rank, const NativeLockOps& ops);

/// Slow-path try-acquire; on success the lock is recorded held. The rank
/// check still fires on the ATTEMPT (a try-lock in inverted order is the
/// same latent deadlock - it only "works" until the fast path wins).
bool TryAcquire(const void* id, lockrank::Rank rank,
                const NativeLockOps& ops);

/// Slow-path release: unlocks the native handle, pops the held stack,
/// and wakes explorer threads blocked on `id`.
void Release(const void* id, const NativeLockOps& ops);

/// Condvar notify hook (a yield point for the explorer; wakes modeled
/// waiters). The caller still notifies the native condvar afterwards for
/// any unregistered real waiters.
void CvNotify(const void* cv_id, bool notify_all);

/// Condvar wait hook for REGISTERED explorer threads only: pops `mu_id`
/// from the rank stack, then releases the native lock and blocks on the
/// modeled condvar in ONE scheduler step (separate release + block would
/// open a lost-wakeup window no real cv.wait has). Returns true when the
/// wake was a modeled timeout. Reacquire through Acquire() afterwards.
bool ReleaseAndWait(const void* mu_id, const NativeLockOps& mu_ops,
                    const void* cv_id, bool timed);

}  // namespace kgov::lockinstr

namespace kgov::lockrank {

/// Arms the rank/cycle detector process-wide. Enable/Disable while locks
/// are held leaves per-thread stacks stale - arm around quiescent points
/// (test SetUp/TearDown, process start).
void EnableTracking();
void DisableTracking();
bool TrackingEnabled();

/// RAII arm/disarm for tests.
class ScopedTracking {
 public:
  ScopedTracking() { EnableTracking(); }
  ~ScopedTracking() { DisableTracking(); }
  ScopedTracking(const ScopedTracking&) = delete;
  ScopedTracking& operator=(const ScopedTracking&) = delete;
};

/// Drops every recorded acquired-after edge (graph nodes for destroyed
/// unranked mutexes would otherwise alias new allocations at the same
/// address). Call between independent test scenarios.
void ResetGraph();

/// Clears the CALLING thread's held-lock stack (recovery hook for tests
/// that toggled tracking at a non-quiescent point).
void ResetThreadState();

/// The calling thread's held-lock stack as "name(rank) < ..." text, outermost
/// first. Empty string when nothing is held.
std::string HeldLocksDescription();

/// The process-wide acquired-after graph in Graphviz DOT form: one node
/// per rank class (or per unranked instance), one edge A -> B for every
/// observed "B acquired while A held". tools/ci/analyze.sh uploads this
/// as a CI artifact.
std::string AcquiredAfterGraphDot();

}  // namespace kgov::lockrank

#endif  // KGOV_COMMON_LOCK_RANK_H_
