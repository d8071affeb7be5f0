// Fixed-size worker pool used to parallelize independent SGP sub-problems in
// the distributed split-and-merge strategy (paper SVI). The paper ran the
// clusters on four machines; the clusters are independent by construction,
// so a thread pool reproduces the same speedup structure on one machine.

#ifndef KGOV_COMMON_THREAD_POOL_H_
#define KGOV_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace kgov {

/// A simple FIFO thread pool. Tasks may not block on other tasks submitted
/// to the same pool (no nested dependency scheduling).
///
/// Exceptions: a task submitted via Submit that throws has the exception
/// captured into its future (std::packaged_task semantics); the worker
/// thread survives. A task that throws something a packaged_task cannot
/// capture never reaches the worker loop, which additionally swallows and
/// counts any stray exception as a last resort instead of terminating the
/// process.
///
/// Locking discipline (checked by the KGOV_STATIC_ANALYSIS build): mu_
/// guards the task queue, the shutdown flag, and the stray-exception
/// counter; cv_ is the queue's not-empty/shutdown signal. Tasks run with
/// no pool lock held - a task that logs or submits more work never holds
/// mu_.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. If `fn` throws,
  /// the exception is rethrown from future.get(), not on the worker.
  ///
  /// Submit racing the destructor is well-defined: a task is either
  /// enqueued before the shutdown flag is observed (the destructor's drain
  /// runs it) or, once shutdown has begun, executed inline on the
  /// submitting thread. Either way the returned future becomes ready with
  /// the task's result - a submitted task is never dropped and its future
  /// never throws broken_promise. (tests/test_thread_pool.cc,
  /// ShutdownVsSubmit*, locks this in under TSan and sched::Explorer.)
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    bool run_inline = false;
    {
      MutexLock lock(mu_);
      if (shutting_down_) {
        // Workers are draining and may already have observed an empty
        // queue; enqueueing now could strand the task (broken_promise
        // once the pool's queue is destroyed). Run it on the caller.
        run_inline = true;
      } else {
        queue_.emplace_back([task]() { (*task)(); });
      }
    }
    if (run_inline) {
      (*task)();  // packaged_task captures any exception into the future
    } else {
      cv_.NotifyOne();
    }
    return result;
  }

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Exceptions that escaped task wrappers and were swallowed by the worker
  /// loop (should stay 0; non-zero indicates a task infrastructure bug).
  size_t StrayExceptionCount() const KGOV_EXCLUDES(mu_);

 private:
  void WorkerLoop() KGOV_EXCLUDES(mu_);

  mutable Mutex mu_{KGOV_LOCK_RANK(kThreadPool)};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ KGOV_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  size_t stray_exceptions_ KGOV_GUARDED_BY(mu_) = 0;
  bool shutting_down_ KGOV_GUARDED_BY(mu_) = false;
};

/// Runs `fn(i)` for i in [0, n) on `pool` (or inline when pool is null),
/// blocking until all iterations complete. An iteration that throws is
/// captured (it does not terminate the process or abandon the remaining
/// iterations); the returned status is OK when every iteration completed,
/// otherwise Internal with the first failure's message. Use the
/// `failed` out-parameter overload to learn which iterations failed.
Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<void(size_t)>& fn);

/// As above, and fills `failed` (resized to n) with per-iteration failure
/// flags so callers can isolate and retry/quarantine individual items.
Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<void(size_t)>& fn,
                   std::vector<char>* failed);

}  // namespace kgov

#endif  // KGOV_COMMON_THREAD_POOL_H_
