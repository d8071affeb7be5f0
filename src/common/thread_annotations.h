// Clang thread-safety annotations and the capability-annotated mutex
// wrappers every concurrent kgov subsystem uses.
//
// The locking discipline of the serving stack (epoch-swapped reads in
// core::OnlineKgOptimizer, the sharded result cache, the thread pool's
// task queue) used to live in comments. These macros turn those comments
// into machine-checked contracts: under Clang with -Wthread-safety (the
// KGOV_STATIC_ANALYSIS build, tools/ci/analyze.sh), annotating a member
// with KGOV_GUARDED_BY(mu_) makes any unlocked access a compile error.
// Under GCC (which has no thread-safety analysis) every macro expands to
// nothing and the wrappers behave exactly like std::mutex +
// std::lock_guard, so the annotations cost nothing where they cannot be
// checked.
//
// Conventions (docs/static_analysis.md):
//  * Mutex members are kgov::Mutex / kgov::SharedMutex, never raw
//    std::mutex (enforced by tools/lint/kgov_lint.py: raw-mutex-member).
//  * Every member a mutex protects carries KGOV_GUARDED_BY(mu_).
//  * Functions that expect the caller to hold a lock say
//    KGOV_REQUIRES(mu_) instead of a "caller holds mu_" comment.
//  * Critical sections are MutexLock / ReaderMutexLock / WriterMutexLock
//    scopes; condition waits go through MutexLock::Wait.

#ifndef KGOV_COMMON_THREAD_ANNOTATIONS_H_
#define KGOV_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include <pthread.h>

#if defined(KGOV_LOCK_DEBUG)
#include "common/lock_rank.h"
#include "common/lock_ranks.h"
#include "common/sched.h"
#else
// The rank registry is tiny and header-only; keeping it visible in plain
// builds lets call sites say Mutex mu_{KGOV_LOCK_RANK(...)} without their
// own #if. The constructor discards the value below.
#include "common/lock_ranks.h"
#endif

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define KGOV_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef KGOV_THREAD_ANNOTATION_
#define KGOV_THREAD_ANNOTATION_(x)  // not supported by this compiler
#endif

/// Declares a type to be a capability ("mutex"-like). Applied to the
/// wrapper classes below; user code never needs it directly.
#define KGOV_CAPABILITY(x) KGOV_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define KGOV_SCOPED_CAPABILITY KGOV_THREAD_ANNOTATION_(scoped_lockable)

/// Member annotation: reads/writes require holding `x`.
#define KGOV_GUARDED_BY(x) KGOV_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer-member annotation: the pointed-to data requires holding `x`
/// (the pointer itself may be read freely).
#define KGOV_PT_GUARDED_BY(x) KGOV_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function annotation: the caller must hold the listed capabilities
/// exclusively. Replaces "caller holds mu_" comments.
#define KGOV_REQUIRES(...) \
  KGOV_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function annotation: the caller must hold the listed capabilities at
/// least in shared (reader) mode.
#define KGOV_REQUIRES_SHARED(...) \
  KGOV_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function annotation: the function acquires the capability and leaves it
/// held on return.
#define KGOV_ACQUIRE(...) \
  KGOV_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define KGOV_ACQUIRE_SHARED(...) \
  KGOV_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function annotation: the function releases a held capability.
#define KGOV_RELEASE(...) \
  KGOV_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define KGOV_RELEASE_SHARED(...) \
  KGOV_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function annotation: acquires the capability only when returning the
/// given value (e.g. KGOV_TRY_ACQUIRE(true) on a try_lock).
#define KGOV_TRY_ACQUIRE(...) \
  KGOV_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function annotation: the caller must NOT hold the listed capabilities
/// (deadlock prevention; e.g. public methods that lock internally).
#define KGOV_EXCLUDES(...) KGOV_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function annotation: returns a reference to the given capability.
#define KGOV_RETURN_CAPABILITY(x) KGOV_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables analysis inside one function. Use only with a
/// comment explaining why the analysis cannot see the invariant.
#define KGOV_NO_THREAD_SAFETY_ANALYSIS \
  KGOV_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace kgov {

/// std::mutex with the capability annotation, so members can be declared
/// KGOV_GUARDED_BY(mu_) and functions KGOV_REQUIRES(mu_). Lock through
/// MutexLock; Lock()/Unlock() exist for the rare manual pairing.
///
/// The optional constructor rank (common/lock_ranks.h) places the mutex
/// in the process-wide acquisition order; in lock-debug builds
/// (KGOV_LOCK_DEBUG) every acquisition is checked against it by the
/// runtime detector (common/lock_rank.h) whenever tracking is armed, and
/// routed through the schedule explorer (common/sched.h) on registered
/// test threads. When both are dormant the hook is one relaxed atomic
/// load; in plain builds it does not exist at all.
class KGOV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#if defined(KGOV_LOCK_DEBUG)
  explicit Mutex(lockrank::Rank rank) : rank_(rank) {}
#else
  explicit Mutex(lockrank::Rank /*rank*/) {}
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KGOV_ACQUIRE() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) {
      lockinstr::Acquire(this, rank_, Ops());
      return;
    }
#endif
    mu_.lock();
  }
  void Unlock() KGOV_RELEASE() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) {
      lockinstr::Release(this, Ops());
      return;
    }
#endif
    mu_.unlock();
  }
  bool TryLock() KGOV_TRY_ACQUIRE(true) {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) {
      return lockinstr::TryAcquire(this, rank_, Ops());
    }
#endif
    return mu_.try_lock();
  }

  /// The wrapped handle, for condition-variable waits (MutexLock::Wait).
  /// Locking through the handle bypasses the analysis - don't.
  std::mutex& native_handle() { return mu_; }

 private:
  friend class MutexLock;  // Wait/WaitFor need rank_ + Ops()

#if defined(KGOV_LOCK_DEBUG)
  lockinstr::NativeLockOps Ops() {
    return {&mu_, [](void* h) { static_cast<std::mutex*>(h)->lock(); },
            [](void* h) { return static_cast<std::mutex*>(h)->try_lock(); },
            [](void* h) { static_cast<std::mutex*>(h)->unlock(); }};
  }
  lockrank::Rank rank_ = lockrank::Rank::kUnranked;
#endif
  std::mutex mu_;
};

namespace internal {

/// A pthread reader-writer lock that prefers writers: once a writer waits,
/// new readers wait behind it, so a stream of overlapping readers (cache
/// hits on one shard) cannot starve a writer (a Put, an epoch sweep).
/// std::shared_mutex leaves the preference to the platform, and glibc's
/// default prefers readers. A thread must not take the reader side twice
/// (the lock-rank table already forbids it): a writer waiting between the
/// two would deadlock it.
class WriterPreferringRwLock {
 public:
  WriterPreferringRwLock() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#if defined(__GLIBC__)
    pthread_rwlockattr_setkind_np(
        &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    pthread_rwlock_init(&rw_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~WriterPreferringRwLock() { pthread_rwlock_destroy(&rw_); }
  WriterPreferringRwLock(const WriterPreferringRwLock&) = delete;
  WriterPreferringRwLock& operator=(const WriterPreferringRwLock&) = delete;

  void lock() { pthread_rwlock_wrlock(&rw_); }
  bool try_lock() { return pthread_rwlock_trywrlock(&rw_) == 0; }
  void unlock() { pthread_rwlock_unlock(&rw_); }
  void lock_shared() { pthread_rwlock_rdlock(&rw_); }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&rw_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  pthread_rwlock_t rw_;
};

}  // namespace internal

/// A writer-preferring reader-writer lock (internal::
/// WriterPreferringRwLock) with the capability annotation: one writer or
/// many readers. Lock through WriterMutexLock / ReaderMutexLock. Takes an
/// optional rank exactly like Mutex; reader acquisitions participate in
/// the ordering too (reader-writer lock cycles deadlock just as hard).
class KGOV_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
#if defined(KGOV_LOCK_DEBUG)
  explicit SharedMutex(lockrank::Rank rank) : rank_(rank) {}
#else
  explicit SharedMutex(lockrank::Rank /*rank*/) {}
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() KGOV_ACQUIRE() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) {
      lockinstr::Acquire(this, rank_, ExclusiveOps());
      return;
    }
#endif
    mu_.lock();
  }
  void Unlock() KGOV_RELEASE() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) {
      lockinstr::Release(this, ExclusiveOps());
      return;
    }
#endif
    mu_.unlock();
  }
  void LockShared() KGOV_ACQUIRE_SHARED() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) {
      lockinstr::Acquire(this, rank_, SharedOps());
      return;
    }
#endif
    mu_.lock_shared();
  }
  void UnlockShared() KGOV_RELEASE_SHARED() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) {
      lockinstr::Release(this, SharedOps());
      return;
    }
#endif
    mu_.unlock_shared();
  }

 private:
#if defined(KGOV_LOCK_DEBUG)
  using Native = internal::WriterPreferringRwLock;
  lockinstr::NativeLockOps ExclusiveOps() {
    return {&mu_, [](void* h) { static_cast<Native*>(h)->lock(); },
            [](void* h) { return static_cast<Native*>(h)->try_lock(); },
            [](void* h) { static_cast<Native*>(h)->unlock(); }};
  }
  lockinstr::NativeLockOps SharedOps() {
    return {&mu_, [](void* h) { static_cast<Native*>(h)->lock_shared(); },
            [](void* h) { return static_cast<Native*>(h)->try_lock_shared(); },
            [](void* h) { static_cast<Native*>(h)->unlock_shared(); }};
  }
  lockrank::Rank rank_ = lockrank::Rank::kUnranked;
#endif
  internal::WriterPreferringRwLock mu_;
};

/// std::condition_variable wrapper whose notifies are visible to the
/// schedule explorer (a registered thread's NotifyOne/NotifyAll is a
/// yield point and wakes modeled waiters). Wait through MutexLock::Wait /
/// WaitFor - always with a predicate (enforced by kgov_lint's
/// condvar-naked-wait rule).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) lockinstr::CvNotify(this, /*notify_all=*/false);
#endif
    cv_.notify_one();
  }
  void NotifyAll() {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active()) lockinstr::CvNotify(this, /*notify_all=*/true);
#endif
    cv_.notify_all();
  }

  /// The wrapped handle, for MutexLock::Wait's native path. Waiting on it
  /// directly bypasses the explorer - don't.
  std::condition_variable& native_handle() { return cv_; }

 private:
  std::condition_variable cv_;
};

/// RAII exclusive critical section over a Mutex (the annotated
/// std::lock_guard). Supports condition waits: Wait() releases and
/// reacquires the underlying handle, which is invisible to (and safe
/// under) the analysis because the capability is held at every sequence
/// point the analysis can observe.
class KGOV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KGOV_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() KGOV_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Blocks on `cv` until `pred()` holds. The predicate runs with the
  /// mutex held; annotate its lambda KGOV_REQUIRES(mu) so guarded reads
  /// inside it check out. On a registered explorer thread the wait is
  /// modeled (common/sched.h) so wakeup ordering becomes a schedule
  /// decision.
  template <typename Predicate>
  void Wait(CondVar& cv, Predicate pred) {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active() && sched::CurrentThreadRegistered()) {
      sched::CvWait(&cv, &mu_, mu_.rank_, mu_.Ops(),
                    std::function<bool()>(pred));
      return;
    }
#endif
    std::unique_lock<std::mutex> relock(mu_.native_handle(),
                                        std::adopt_lock);
    cv.native_handle().wait(relock, std::move(pred));
    // The wait returned with the handle re-locked; detach so the
    // unique_lock's destructor does not unlock what this scope still owns.
    relock.release();
  }

  /// Timed variant: blocks on `cv` until `pred()` holds or `timeout`
  /// elapses. Returns pred()'s value at wake-up (false = timed out with
  /// the predicate still unsatisfied). The mutex is held on return either
  /// way. Under the explorer the timeout is modeled, not measured.
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(CondVar& cv, const std::chrono::duration<Rep, Period>& timeout,
               Predicate pred) {
#if defined(KGOV_LOCK_DEBUG)
    if (lockinstr::Active() && sched::CurrentThreadRegistered()) {
      return sched::CvWaitFor(
          &cv, &mu_, mu_.rank_, mu_.Ops(),
          std::chrono::duration_cast<std::chrono::nanoseconds>(timeout),
          std::function<bool()>(pred));
    }
#endif
    std::unique_lock<std::mutex> relock(mu_.native_handle(),
                                        std::adopt_lock);
    const bool satisfied =
        cv.native_handle().wait_for(relock, timeout, std::move(pred));
    relock.release();
    return satisfied;
  }

 private:
  Mutex& mu_;
};

/// RAII exclusive (writer) critical section over a SharedMutex.
class KGOV_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) KGOV_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() KGOV_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) critical section over a SharedMutex.
class KGOV_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) KGOV_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() KGOV_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace kgov

#endif  // KGOV_COMMON_THREAD_ANNOTATIONS_H_
