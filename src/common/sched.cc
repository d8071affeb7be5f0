#include "common/sched.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>  // kgov-lint: allow(raw-mutex)
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"

// The scheduler's own state uses RAW std synchronization (lint-allowed
// above): the explorer cannot coordinate through the instrumented
// wrappers it is intercepting.
//
// Execution model. Registered threads pass one run token around: exactly
// one executes between yield points, so an entire schedule is a sequence
// of scheduling DECISIONS (which runnable thread gets the token next).
// Registered threads NEVER block on real locks - acquisition is modeled
// as a try-lock + modeled wait - so the harness itself cannot deadlock on
// test state; a modeled deadlock is detected, reported with its schedule
// token, and the run's threads are abandoned (parked forever, leaked)
// rather than unwound, because they may hold real locks deep inside
// library frames.

namespace kgov::sched {
namespace {

using Clock = std::chrono::steady_clock;

struct RunState;

enum class ThreadPhase {
  kRunnable,
  kBlockedMutex,
  kBlockedCv,
  kFinished,
};

struct ThreadRec {
  int tid = -1;
  std::shared_ptr<RunState> run;
  ThreadPhase phase = ThreadPhase::kRunnable;
  const void* wait_id = nullptr;  // mutex or condvar the thread waits on
  bool timed_wait = false;
  bool woke_by_timeout = false;
};

// A switch away from a still-runnable prev is a PREEMPTION; a switch
// from a blocked prev is forced and costs nothing against the bound.
using Decision = internal::DecisionRecord;

struct RunState {
  std::mutex mu;  // kgov-lint: allow(raw-mutex)
  std::condition_variable cv;

  std::vector<std::shared_ptr<ThreadRec>> threads;
  int current = -1;  // tid holding the token, -1 while a decision is due
  int finished = 0;
  bool complete = false;
  bool dead = false;  // abandoned: every parked thread stays parked
  bool failed = false;
  std::string failure;

  // Modeled exclusive owners (registered threads only), for wait-for
  // analysis. Shared (reader) holds are not modeled as owners.
  std::unordered_map<const void*, int> owner;

  // Schedule policy.
  std::vector<int> prefix;  // forced choices ("x:" tokens); then defaults
  bool pct = false;
  std::vector<double> priority;        // PCT: per-tid priorities
  std::vector<size_t> change_points;   // PCT: decision indices
  std::vector<Decision> trace;

  bool pure = true;
  int64_t stuck_timeout_ms = 10000;
  Clock::time_point last_progress = Clock::now();
};

std::mutex g_run_mu;  // kgov-lint: allow(raw-mutex)
std::shared_ptr<RunState> g_run;

std::shared_ptr<ThreadRec>& SelfSlot() {
  thread_local std::shared_ptr<ThreadRec> rec;
  return rec;
}

std::vector<int> RunnableTids(const RunState& run) {
  std::vector<int> out;
  for (const auto& t : run.threads) {
    if (t->phase == ThreadPhase::kRunnable) out.push_back(t->tid);
  }
  return out;
}

// Parks an abandoned run's thread forever (never returns). The thread -
// and everything its stack owns, including real locks on the abandoned
// scenario's state - is leaked by design; see the file comment.
[[noreturn]] void ParkForeverLocked(std::unique_lock<std::mutex>& lk,
                                    RunState& run) {
  for (;;) {
    run.cv.wait(lk, [] { return false; });  // spurious wakeups re-park
  }
}

std::string DescribeBlockedLocked(const RunState& run) {
  std::ostringstream out;
  for (const auto& t : run.threads) {
    if (t->phase == ThreadPhase::kFinished) continue;
    out << " T" << t->tid;
    switch (t->phase) {
      case ThreadPhase::kRunnable:
        out << "=runnable";
        break;
      case ThreadPhase::kBlockedMutex: {
        out << "=blocked-on-mutex@" << t->wait_id;
        auto it = run.owner.find(t->wait_id);
        if (it != run.owner.end()) out << "(owner T" << it->second << ")";
        break;
      }
      case ThreadPhase::kBlockedCv:
        out << (t->timed_wait ? "=timed-wait-on-cv@" : "=wait-on-cv@")
            << t->wait_id;
        break;
      case ThreadPhase::kFinished:
        break;
    }
  }
  return out.str();
}

void FailRunLocked(RunState& run, std::string why) {
  run.failed = true;
  run.failure = std::move(why);
  run.dead = true;
  run.cv.notify_all();
}

// Blocks (releasing run.mu in between) until at least one thread is
// runnable, modeling condvar timeouts and free-thread progress along the
// way; or declares deadlock / stuck and marks the run dead. Runs on
// whichever thread currently owes a scheduling decision.
void WaitForRunnableLocked(RunState& run, std::unique_lock<std::mutex>& lk) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    if (run.dead) return;
    bool any_runnable = false;
    bool any_timed_cv = false;
    bool retried = false;
    for (const auto& t : run.threads) {
      if (t->phase == ThreadPhase::kRunnable) any_runnable = true;
      if (t->phase == ThreadPhase::kBlockedCv && t->timed_wait) {
        any_timed_cv = true;
      }
      // A mutex waiter whose lock has no modeled owner either races a
      // free thread or just missed its wakeup: let it retry.
      if (t->phase == ThreadPhase::kBlockedMutex &&
          run.owner.find(t->wait_id) == run.owner.end()) {
        t->phase = ThreadPhase::kRunnable;
        retried = true;
      }
    }
    if (any_runnable || retried) return;
    if (any_timed_cv) {
      // Nothing else can run: model the earliest timeout firing. Lowest
      // tid keeps it deterministic.
      for (const auto& t : run.threads) {
        if (t->phase == ThreadPhase::kBlockedCv && t->timed_wait) {
          t->phase = ThreadPhase::kRunnable;
          t->woke_by_timeout = true;
          return;
        }
      }
    }
    if (run.pure) {
      FailRunLocked(run, "deadlock: every registered thread is blocked:" +
                             DescribeBlockedLocked(run));
      return;
    }
    // Impure scenario: a free thread may still notify or release. Poll:
    // there is deliberately no predicate because any state change
    // (wake-up, release, notify) re-runs the runnability scan above.
    // kgov-lint: allow(condvar-naked-wait)
    run.cv.wait_for(lk, std::chrono::milliseconds(1));
    if (Clock::now() - start > std::chrono::milliseconds(run.stuck_timeout_ms)) {
      FailRunLocked(run, "stuck: no registered thread became runnable:" +
                             DescribeBlockedLocked(run));
      return;
    }
  }
}

int DefaultChoice(const Decision& d) {
  if (d.prev_runnable &&
      std::find(d.runnable.begin(), d.runnable.end(), d.prev) !=
          d.runnable.end()) {
    return d.prev;
  }
  return d.runnable.front();  // runnable is sorted ascending
}

// Makes the next scheduling decision: picks a runnable thread per the
// run's policy, records it in the trace, and hands it the token.
// Pre: run.current == -1. May mark the run dead instead (deadlock).
void PickNextLocked(RunState& run, std::unique_lock<std::mutex>& lk, int prev,
                    bool prev_runnable) {
  WaitForRunnableLocked(run, lk);
  if (run.dead) return;

  // Runaway guard: scenario bodies are meant to be tiny (a few hundred
  // yield points). A schedule that makes this many decisions is spinning
  // - typically a registered thread busy-polling state only a free
  // thread can change. Fail loudly instead of hanging the explorer.
  constexpr size_t kMaxDecisions = 200000;
  if (run.trace.size() >= kMaxDecisions) {
    FailRunLocked(run,
                  "runaway schedule: exceeded " +
                      std::to_string(kMaxDecisions) +
                      " scheduling decisions; a scenario thread is likely "
                      "busy-waiting across yield points");
    return;
  }

  Decision d;
  d.runnable = RunnableTids(run);
  d.prev = prev;
  d.prev_runnable =
      prev_runnable && std::find(d.runnable.begin(), d.runnable.end(), prev) !=
                           d.runnable.end();

  const size_t index = run.trace.size();
  int chosen = -1;
  if (index < run.prefix.size()) {
    const int forced = run.prefix[index];
    if (std::find(d.runnable.begin(), d.runnable.end(), forced) !=
        d.runnable.end()) {
      chosen = forced;
    }
    // A stale prefix choice (scenario diverged) falls through to the
    // default - replay is best-effort under nondeterminism.
  }
  if (chosen < 0 && run.pct) {
    for (int tid : d.runnable) {
      if (chosen < 0 || run.priority[tid] > run.priority[chosen]) chosen = tid;
    }
    if (std::find(run.change_points.begin(), run.change_points.end(), index) !=
        run.change_points.end()) {
      double lowest = run.priority[chosen];
      for (double p : run.priority) lowest = std::min(lowest, p);
      run.priority[chosen] = lowest - 1.0;
    }
  }
  if (chosen < 0) chosen = DefaultChoice(d);

  d.chosen = chosen;
  run.trace.push_back(d);
  run.current = chosen;
  run.last_progress = Clock::now();
  run.cv.notify_all();
}

// Gives up the token at a yield point and blocks until granted again.
// `runnable` distinguishes a preemptible yield from a forced switch.
void YieldLocked(const std::shared_ptr<ThreadRec>& rec,
                 std::unique_lock<std::mutex>& lk) {
  RunState& run = *rec->run;
  if (run.dead) ParkForeverLocked(lk, run);
  run.current = -1;
  PickNextLocked(run, lk, rec->tid, rec->phase == ThreadPhase::kRunnable);
  run.cv.wait(lk, [&] {
    return run.dead ||
           (run.current == rec->tid && rec->phase == ThreadPhase::kRunnable);
  });
  if (run.dead) ParkForeverLocked(lk, run);
}

void SchedulePoint(const std::shared_ptr<ThreadRec>& rec) {
  RunState& run = *rec->run;
  std::unique_lock<std::mutex> lk(run.mu);
  YieldLocked(rec, lk);
}

std::string EncodeTrace(const std::vector<Decision>& trace) {
  std::string out = "x:";
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(trace[i].chosen);
  }
  return out;
}

int CountPreemptions(const std::vector<Decision>& trace, size_t upto) {
  int preemptions = 0;
  for (size_t i = 0; i < upto && i < trace.size(); ++i) {
    if (trace[i].prev_runnable && trace[i].chosen != trace[i].prev) {
      ++preemptions;
    }
  }
  return preemptions;
}

// Lexicographic DFS step over the decision tree: finds the deepest
// decision with an untried alternative within the preemption budget and
// emits the prefix that forces it. Children order at each decision is
// [default, then others ascending]. Returns false when the bounded tree
// is exhausted.
bool NextPrefix(const std::vector<Decision>& trace, int bound,
                std::vector<int>* prefix) {
  for (size_t j = trace.size(); j-- > 0;) {
    const Decision& d = trace[j];
    if (d.runnable.size() < 2) continue;
    std::vector<int> order;
    const int def = DefaultChoice(d);
    order.push_back(def);
    for (int tid : d.runnable) {
      if (tid != def) order.push_back(tid);
    }
    const size_t chosen_index = static_cast<size_t>(
        std::find(order.begin(), order.end(), d.chosen) - order.begin());
    const int base = CountPreemptions(trace, j);
    for (size_t next = chosen_index + 1; next < order.size(); ++next) {
      const int candidate = order[next];
      const int cost =
          (d.prev_runnable && candidate != d.prev) ? 1 : 0;
      if (base + cost > bound) continue;
      prefix->clear();
      for (size_t i = 0; i < j; ++i) prefix->push_back(trace[i].chosen);
      prefix->push_back(candidate);
      return true;
    }
  }
  return false;
}

// Token grammar: "x:3,0,1" forces that choice sequence (then defaults);
// "p:<hex seed>" replays one PCT schedule. Returns false on a malformed
// token.
bool ParseToken(const std::string& token, std::vector<int>* prefix, bool* pct,
                uint64_t* pct_seed) {
  *pct = false;
  prefix->clear();
  if (token.rfind("x:", 0) == 0) {
    const std::string body = token.substr(2);
    if (body.empty()) return true;
    std::istringstream in(body);
    std::string field;
    while (std::getline(in, field, ',')) {
      try {
        prefix->push_back(std::stoi(field));
      } catch (...) {
        return false;
      }
    }
    return true;
  }
  if (token.rfind("p:", 0) == 0) {
    *pct = true;
    try {
      *pct_seed = std::stoull(token.substr(2), nullptr, 16);
    } catch (...) {
      return false;
    }
    return true;
  }
  return false;
}

std::string PctToken(uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p:%llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

void ThreadMain(std::shared_ptr<RunState> run, std::shared_ptr<ThreadRec> rec,
                std::function<void()> body) {
  SelfSlot() = rec;
  {
    std::unique_lock<std::mutex> lk(run->mu);
    run->cv.wait(lk, [&] { return run->dead || run->current == rec->tid; });
    if (run->dead) ParkForeverLocked(lk, *run);
  }
  bool threw = false;
  std::string what;
  try {
    body();
  } catch (const std::exception& e) {
    threw = true;
    what = e.what();
  } catch (...) {
    threw = true;
    what = "non-std exception";
  }
  {
    std::unique_lock<std::mutex> lk(run->mu);
    rec->phase = ThreadPhase::kFinished;
    ++run->finished;
    run->current = -1;
    if (threw) {
      FailRunLocked(*run, "exception in T" + std::to_string(rec->tid) + ": " +
                              what);
    } else if (run->finished ==
               static_cast<int>(run->threads.size())) {
      run->complete = true;
      run->cv.notify_all();
    } else if (!run->dead) {
      PickNextLocked(*run, lk, rec->tid, false);
    }
  }
  SelfSlot().reset();
}

}  // namespace

bool CurrentThreadRegistered() { return SelfSlot() != nullptr; }

void TestYield() {
  std::shared_ptr<ThreadRec> rec = SelfSlot();
  if (rec == nullptr) return;
  SchedulePoint(rec);
}

void CvWait(const void* cv_id, const void* mu_id, lockrank::Rank mu_rank,
            const lockinstr::NativeLockOps& mu_ops,
            const std::function<bool()>& pred) {
  for (;;) {
    if (pred()) return;
    // Release-and-block is ONE scheduler step (like the real cv.wait):
    // a separate release + block would open a modeled lost-wakeup window
    // no real execution has.
    lockinstr::ReleaseAndWait(mu_id, mu_ops, cv_id, /*timed=*/false);
    lockinstr::Acquire(mu_id, mu_rank, mu_ops);
  }
}

bool CvWaitFor(const void* cv_id, const void* mu_id, lockrank::Rank mu_rank,
               const lockinstr::NativeLockOps& mu_ops,
               std::chrono::nanoseconds /*timeout*/,
               const std::function<bool()>& pred) {
  for (;;) {
    if (pred()) return true;
    const bool timed_out =
        lockinstr::ReleaseAndWait(mu_id, mu_ops, cv_id, /*timed=*/true);
    lockinstr::Acquire(mu_id, mu_rank, mu_ops);
    if (timed_out) return pred();
  }
}

namespace internal {

void AcquireMutex(const void* id, const lockinstr::NativeLockOps& ops) {
  std::shared_ptr<ThreadRec> rec = SelfSlot();
  RunState& run = *rec->run;
  std::unique_lock<std::mutex> lk(run.mu);
  // The acquire attempt is a yield point: schedules may preempt between
  // the caller's last instruction and the lock.
  YieldLocked(rec, lk);
  for (;;) {
    if (ops.try_lock(ops.handle)) {
      run.owner[id] = rec->tid;
      return;
    }
    rec->phase = ThreadPhase::kBlockedMutex;
    rec->wait_id = id;
    run.current = -1;
    PickNextLocked(run, lk, rec->tid, false);
    run.cv.wait(lk, [&] {
      return run.dead ||
             (run.current == rec->tid && rec->phase == ThreadPhase::kRunnable);
    });
    if (run.dead) ParkForeverLocked(lk, run);
  }
}

bool BlockOnCv(const void* mu_id, const lockinstr::NativeLockOps& mu_ops,
               const void* cv_id, bool timed) {
  std::shared_ptr<ThreadRec> rec = SelfSlot();
  RunState& run = *rec->run;
  std::unique_lock<std::mutex> lk(run.mu);
  if (run.dead) ParkForeverLocked(lk, run);
  // Atomic release-and-block: unlock the real mutex, wake its modeled
  // waiters, and enter the condvar wait in one scheduler step.
  mu_ops.unlock(mu_ops.handle);
  run.owner.erase(mu_id);
  for (const auto& t : run.threads) {
    if (t->phase == ThreadPhase::kBlockedMutex && t->wait_id == mu_id) {
      t->phase = ThreadPhase::kRunnable;
    }
  }
  rec->phase = ThreadPhase::kBlockedCv;
  rec->wait_id = cv_id;
  rec->timed_wait = timed;
  rec->woke_by_timeout = false;
  run.current = -1;
  PickNextLocked(run, lk, rec->tid, false);
  run.cv.wait(lk, [&] {
    return run.dead ||
           (run.current == rec->tid && rec->phase == ThreadPhase::kRunnable);
  });
  if (run.dead) ParkForeverLocked(lk, run);
  const bool timed_out = rec->woke_by_timeout;
  rec->timed_wait = false;
  rec->woke_by_timeout = false;
  return timed_out;
}

bool TryAcquireMutex(const void* id, const lockinstr::NativeLockOps& ops) {
  std::shared_ptr<ThreadRec> rec = SelfSlot();
  RunState& run = *rec->run;
  std::unique_lock<std::mutex> lk(run.mu);
  YieldLocked(rec, lk);
  if (ops.try_lock(ops.handle)) {
    run.owner[id] = rec->tid;
    return true;
  }
  return false;
}

void ReleaseMutex(const void* id, const lockinstr::NativeLockOps& ops) {
  std::shared_ptr<ThreadRec> rec = SelfSlot();
  RunState& run = *rec->run;
  std::unique_lock<std::mutex> lk(run.mu);
  ops.unlock(ops.handle);
  run.owner.erase(id);
  for (const auto& t : run.threads) {
    if (t->phase == ThreadPhase::kBlockedMutex && t->wait_id == id) {
      t->phase = ThreadPhase::kRunnable;
    }
  }
  // Release is a yield point: the wakeup race is often the bug.
  YieldLocked(rec, lk);
}

void NotifyCv(const void* cv_id, bool /*notify_all*/) {
  // Snapshot the live run: free (unregistered) threads route through
  // here too and must not race run teardown.
  std::shared_ptr<RunState> run;
  {
    std::lock_guard<std::mutex> g(g_run_mu);
    run = g_run;
  }
  if (run == nullptr) return;
  std::shared_ptr<ThreadRec> rec = SelfSlot();
  std::unique_lock<std::mutex> lk(run->mu);
  if (run->dead) {
    if (rec != nullptr) ParkForeverLocked(lk, *run);
    return;
  }
  // notify_one is modeled as notify_all: spurious wakeups are legal and
  // explore strictly more schedules (see sched.h).
  for (const auto& t : run->threads) {
    if (t->phase == ThreadPhase::kBlockedCv && t->wait_id == cv_id) {
      t->phase = ThreadPhase::kRunnable;
      t->woke_by_timeout = false;
    }
  }
  if (rec != nullptr && rec->run == run) {
    YieldLocked(rec, lk);  // notify is a yield point for registered threads
  } else {
    run->cv.notify_all();  // kick a scheduler polling for runnables
  }
}

}  // namespace internal

Status ExplorerOptions::Validate() const {
  if (preemption_bound < 0) {
    return Status::InvalidArgument("preemption_bound must be >= 0");
  }
  if (max_schedules < 1) {
    return Status::InvalidArgument("max_schedules must be >= 1");
  }
  if (random_schedules < 0) {
    return Status::InvalidArgument("random_schedules must be >= 0");
  }
  if (stuck_timeout_ms < 1) {
    return Status::InvalidArgument("stuck_timeout_ms must be >= 1");
  }
  return Status::OK();
}

Explorer::Explorer(ExplorerOptions options) : options_(options) {}

Status Explorer::RunOne(const std::function<Scenario()>& factory,
                        const std::string& token,
                        std::vector<internal::DecisionRecord>* trace_out) {
  std::vector<int> prefix;
  bool pct = false;
  uint64_t pct_seed = 0;
  if (!ParseToken(token, &prefix, &pct, &pct_seed)) {
    return Status::InvalidArgument("bad schedule token: " + token);
  }

  Scenario scenario = factory();
  const int n = static_cast<int>(scenario.threads.size());
  if (n < 1 || n > 16) {
    return Status::InvalidArgument("scenario needs 1..16 threads, got " +
                                   std::to_string(n));
  }

  auto run = std::make_shared<RunState>();
  run->prefix = std::move(prefix);
  run->pure = options_.pure;
  run->stuck_timeout_ms = options_.stuck_timeout_ms;
  if (pct) {
    run->pct = true;
    Rng rng(pct_seed);
    for (int i = 0; i < n; ++i) {
      run->priority.push_back(rng.NextDouble());
    }
    const uint64_t horizon = std::max(32, stats_.max_decision_points);
    for (int i = 0; i < options_.preemption_bound; ++i) {
      run->change_points.push_back(rng.NextIndex(horizon));
    }
  }
  for (int i = 0; i < n; ++i) {
    auto rec = std::make_shared<ThreadRec>();
    rec->tid = i;
    rec->run = run;
    run->threads.push_back(rec);
  }
  {
    std::lock_guard<std::mutex> g(g_run_mu);
    g_run = run;
  }
  lockinstr::g_active.fetch_or(lockinstr::kExplorerBit,
                               std::memory_order_relaxed);

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(ThreadMain, run, run->threads[i],
                         scenario.threads[i]);
  }
  {
    std::unique_lock<std::mutex> lk(run->mu);
    PickNextLocked(*run, lk, /*prev=*/-1, /*prev_runnable=*/false);
    while (!run->complete && !run->dead) {
      // Timed poll, predicate-free on purpose: the loop condition is the
      // predicate, and the timeout arms the stuck-thread watchdog below.
      // kgov-lint: allow(condvar-naked-wait)
      run->cv.wait_for(lk, std::chrono::milliseconds(50));
      // Watchdog for a granted thread stuck in a real blocking call the
      // scheduler cannot see.
      if (!run->complete && !run->dead &&
          Clock::now() - run->last_progress >
              std::chrono::milliseconds(run->stuck_timeout_ms)) {
        FailRunLocked(*run,
                      "stuck: granted thread made no progress (real "
                      "blocking call outside the model?)");
      }
    }
  }

  Status result = Status::OK();
  std::string replay_token;
  {
    std::unique_lock<std::mutex> lk(run->mu);
    if (trace_out != nullptr) *trace_out = run->trace;
    stats_.max_decision_points = std::max(
        stats_.max_decision_points, static_cast<int>(run->trace.size()));
    replay_token = EncodeTrace(run->trace);
    if (run->failed) {
      result = Status::Internal(run->failure + "; schedule token: " +
                                replay_token +
                                (run->pct ? " (from " + token + ")" : ""));
    }
  }

  if (run->dead) {
    // Abandoned run: the threads are parked forever (or stuck for real);
    // they, their stacks, and the scenario state leak. See file comment.
    for (std::thread& t : threads) t.detach();
  } else {
    for (std::thread& t : threads) t.join();
    // Each record points back at the run; break the cycle so a finished
    // run is freed.
    for (const auto& t : run->threads) t->run.reset();
  }

  lockinstr::g_active.fetch_and(~lockinstr::kExplorerBit,
                                std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(g_run_mu);
    g_run.reset();
  }

  if (result.ok() && scenario.check) {
    Status invariant = scenario.check();
    if (!invariant.ok()) {
      result = Status::Internal("invariant failed: " + invariant.ToString() +
                                "; schedule token: " + replay_token);
    }
  }
  ++stats_.schedules_run;
  return result;
}

Status Explorer::Explore(const std::function<Scenario()>& factory) {
  static std::mutex explore_mu;  // kgov-lint: allow(raw-mutex)
  std::lock_guard<std::mutex> serialize(explore_mu);

  Status valid = options_.Validate();
  if (!valid.ok()) return valid;
  stats_ = Stats{};

  // Phase 1: exhaustive bounded-preemption DFS.
  std::vector<int> prefix;
  std::vector<Decision> trace;
  for (;;) {
    if (stats_.exhaustive_schedules >= options_.max_schedules) {
      stats_.capped = true;
      KGOV_LOG(WARNING) << "sched::Explorer: max_schedules="
                        << options_.max_schedules
                        << " hit before exhausting the preemption bound; "
                           "coverage is partial";
      break;
    }
    std::string token = "x:";
    for (size_t i = 0; i < prefix.size(); ++i) {
      if (i > 0) token += ",";
      token += std::to_string(prefix[i]);
    }
    Status st = RunOne(factory, token, &trace);
    ++stats_.exhaustive_schedules;
    if (!st.ok()) return st;
    if (!NextPrefix(trace, options_.preemption_bound, &prefix)) {
      stats_.bound_exhausted = true;
      break;
    }
  }

  // Phase 2: PCT-style randomized fallback beyond the bound.
  Rng seeder(options_.seed);
  for (int i = 0; i < options_.random_schedules; ++i) {
    const uint64_t seed = seeder.Next64();
    Status st = RunOne(factory, PctToken(seed), nullptr);
    ++stats_.random_schedules;
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status Explorer::Replay(const std::string& token,
                        const std::function<Scenario()>& factory) {
  Status valid = options_.Validate();
  if (!valid.ok()) return valid;
  return RunOne(factory, token, nullptr);
}

}  // namespace kgov::sched
