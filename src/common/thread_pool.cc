#include "common/thread_pool.h"

#include <exception>
#include <stdexcept>
#include <string>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace kgov {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) {
    worker.join();
  }
}

size_t ThreadPool::StrayExceptionCount() const {
  MutexLock lock(mu_);
  return stray_exceptions_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      lock.Wait(cv_, [this]() KGOV_REQUIRES(mu_) {
        return shutting_down_ || !queue_.empty();
      });
      if (queue_.empty()) {
        // shutting_down_ && empty queue: drain complete.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Submit wraps tasks in packaged_task, which captures exceptions into
    // the future; anything escaping here would otherwise terminate the
    // process via the noexcept thread entry. Swallow and count instead.
    // The counter update takes mu_, but the log line is emitted outside
    // it: holding the queue lock across the logging sink would serialize
    // every queue pop and Submit on stderr I/O (and trip the lint gate's
    // no-log-under-lock rule).
    std::string stray_message;
    try {
      task();
    } catch (const std::exception& e) {
      stray_message = std::string("thread pool task escaped its wrapper: ") +
                      e.what();
    } catch (...) {
      stray_message = "thread pool task escaped its wrapper";
    }
    if (!stray_message.empty()) {
      {
        MutexLock lock(mu_);
        ++stray_exceptions_;
      }
      KGOV_LOG(ERROR) << stray_message;
    }
  }
}

namespace {

// One guarded iteration: runs fn(i), capturing any exception (including the
// kTaskFailure injection) into the shared failure state.
void GuardedCall(const std::function<void(size_t)>& fn, size_t i,
                 std::vector<char>* failed, Mutex* mu,
                 Status* first_error) {
  try {
    if (FaultFires(FaultSite::kTaskFailure)) {
      throw std::runtime_error("injected task failure (iteration " +
                               std::to_string(i) + ")");
    }
    fn(i);
  } catch (const std::exception& e) {
    MutexLock lock(*mu);
    (*failed)[i] = 1;
    if (first_error->ok()) {
      *first_error = Status::Internal("parallel task " + std::to_string(i) +
                                      " threw: " + e.what());
    }
  } catch (...) {
    MutexLock lock(*mu);
    (*failed)[i] = 1;
    if (first_error->ok()) {
      *first_error = Status::Internal("parallel task " + std::to_string(i) +
                                      " threw a non-std exception");
    }
  }
}

}  // namespace

Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<void(size_t)>& fn,
                   std::vector<char>* failed) {
  failed->assign(n, 0);
  Mutex mu{KGOV_LOCK_RANK(kParallelForState)};
  Status first_error;
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      GuardedCall(fn, i, failed, &mu, &first_error);
    }
    return first_error;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(pool->Submit(
        [&fn, i, failed, &mu, &first_error]() {
          GuardedCall(fn, i, failed, &mu, &first_error);
        }));
  }
  for (auto& f : futures) f.get();
  return first_error;
}

Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<void(size_t)>& fn) {
  std::vector<char> failed;
  return ParallelFor(pool, n, fn, &failed);
}

}  // namespace kgov
