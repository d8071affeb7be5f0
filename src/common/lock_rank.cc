#include "common/lock_rank.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>  // kgov-lint: allow(raw-mutex)
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/sched.h"

// The tracker's own state is guarded by a RAW std::mutex (lint-allowed
// above): it cannot use the instrumented wrappers without observing
// itself. Reentrancy from the violation-report path (logging and the
// telemetry mirror both take instrumented locks) is cut by the per-thread
// in_hook guard, which sends nested hook entries straight to the native
// lock.

namespace kgov::lockinstr {

std::atomic<uint32_t> g_active{0};

}  // namespace kgov::lockinstr

namespace kgov::lockrank {

const char* RankName(Rank rank) {
  switch (rank) {
    case Rank::kUnranked:
      return "kUnranked";
    case Rank::kLogging:
      return "kLogging";
    case Rank::kTelemetryRegistry:
      return "kTelemetryRegistry";
    case Rank::kFaultInjection:
      return "kFaultInjection";
    case Rank::kParallelForState:
      return "kParallelForState";
    case Rank::kSolverBatchReport:
      return "kSolverBatchReport";
    case Rank::kThreadPool:
      return "kThreadPool";
    case Rank::kVoteLogSerial:
      return "kVoteLogSerial";
    case Rank::kEpochPublish:
      return "kEpochPublish";
    case Rank::kServeCacheShard:
      return "kServeCacheShard";
    case Rank::kQueryEpochPin:
      return "kQueryEpochPin";
    case Rank::kStreamQueue:
      return "kStreamQueue";
  }
  return "k?";
}

namespace {

struct HeldLock {
  const void* id;
  Rank rank;
};

struct ThreadState {
  std::vector<HeldLock> held;
  // Nonzero while inside tracker internals (violation reporting): nested
  // hook entries bypass tracking entirely instead of recursing.
  int in_hook = 0;
};

ThreadState& State() {
  thread_local ThreadState ts;
  return ts;
}

// Graph node identity: ranked locks collapse into one node per rank
// class (the ORDER is per class, not per instance); unranked locks get a
// node per instance address.
using NodeKey = uint64_t;
constexpr NodeKey kRankClassBit = 1ull << 63;

NodeKey KeyFor(const void* id, Rank rank) {
  if (rank != Rank::kUnranked) {
    return kRankClassBit | static_cast<NodeKey>(rank);
  }
  return static_cast<NodeKey>(reinterpret_cast<uintptr_t>(id));
}

struct Node {
  std::string label;
  // Edge this-node -> key, with the context (thread + held stack) of the
  // first time the order was observed.
  std::map<NodeKey, std::string> out;
};

struct Graph {
  std::mutex mu;  // kgov-lint: allow(raw-mutex)
  std::unordered_map<NodeKey, Node> nodes;
  // (from, to) pairs already reported, so a hot path with a stable
  // inversion fires one soft violation, not one per iteration.
  std::set<std::pair<NodeKey, NodeKey>> reported;
};

Graph& TheGraph() {
  static Graph* graph = new Graph();  // leaked: outlives all threads
  return *graph;
}

std::string LockLabel(const void* id, Rank rank) {
  if (rank != Rank::kUnranked) {
    std::ostringstream out;
    out << RankName(rank) << "(" << static_cast<int>(rank) << ")";
    return out.str();
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "unranked@%p", id);
  return buf;
}

std::string DescribeStack(const std::vector<HeldLock>& held) {
  std::string out;
  for (const HeldLock& lock : held) {
    if (!out.empty()) out += " > ";
    out += LockLabel(lock.id, lock.rank);
  }
  return out;
}

// Reports one lock-order violation through the contracts layer. Runs
// with in_hook bumped so the logging / telemetry locks taken downstream
// are not themselves tracked.
void ReportViolation(ThreadState& ts, const std::string& message) {
  ++ts.in_hook;
  {
    contracts::internal::ContractFailure failure(
        __FILE__, __LINE__, "lock-order", contracts::ViolationKind::kLockOrder);
    failure.stream() << message;
  }
  --ts.in_hook;
}

// True when `to` is reachable from `from` via recorded acquired-after
// edges (path length >= 1). On success fills `path` with the node keys
// from `from` to `to` inclusive. Caller holds graph.mu.
bool FindPath(const Graph& graph, NodeKey from, NodeKey to,
              std::vector<NodeKey>* path) {
  std::unordered_map<NodeKey, NodeKey> parent;
  std::unordered_set<NodeKey> visited;
  std::deque<NodeKey> frontier;
  frontier.push_back(from);
  visited.insert(from);
  while (!frontier.empty()) {
    NodeKey key = frontier.front();
    frontier.pop_front();
    auto it = graph.nodes.find(key);
    if (it == graph.nodes.end()) continue;
    for (const auto& [next, ctx] : it->second.out) {
      if (next == to) {
        path->clear();
        path->push_back(to);
        for (NodeKey at = key; at != from; at = parent.at(at)) {
          path->push_back(at);
        }
        path->push_back(from);
        std::reverse(path->begin(), path->end());
        return true;
      }
      if (visited.insert(next).second) {
        parent[next] = key;
        frontier.push_back(next);
      }
    }
  }
  return false;
}

// The rank + cycle checks on one acquisition attempt. Records the
// acquired-after edges held -> new regardless of outcome (the DOT dump
// shows violating orders too).
void CheckAcquire(ThreadState& ts, const void* id, Rank rank) {
  if (ts.held.empty()) return;

  const NodeKey new_key = KeyFor(id, rank);
  std::string violation;  // built under graph.mu, reported after

  Graph& graph = TheGraph();
  {
    std::lock_guard<std::mutex> g(graph.mu);

    Node& new_node = graph.nodes[new_key];
    if (new_node.label.empty()) new_node.label = LockLabel(id, rank);

    // Rank check: every ranked lock already held must outrank the new
    // one strictly (descending acquisition order).
    if (rank != Rank::kUnranked) {
      for (const HeldLock& held : ts.held) {
        if (held.rank == Rank::kUnranked) continue;
        if (rank < held.rank) continue;
        const NodeKey held_key = KeyFor(held.id, held.rank);
        if (graph.reported.insert({held_key, new_key}).second &&
            violation.empty()) {
          std::ostringstream out;
          out << "rank inversion: acquiring " << LockLabel(id, rank)
              << " while holding " << LockLabel(held.id, held.rank)
              << (rank == held.rank ? " (equal ranks may not nest)"
                                    : " (ranks must strictly descend)")
              << "; this thread holds: " << DescribeStack(ts.held)
              << "; see common/lock_ranks.h for the acquisition order";
          violation = out.str();
        }
      }
    }

    // Record edges + cycle check against every held lock.
    std::ostringstream ctx;
    ctx << "thread " << std::this_thread::get_id() << " held "
        << DescribeStack(ts.held);
    for (const HeldLock& held : ts.held) {
      const NodeKey held_key = KeyFor(held.id, held.rank);
      if (held_key == new_key) {
        // Same unranked instance re-acquired (self-deadlock), or two
        // same-rank-class instances nested (already flagged by the rank
        // check above).
        if (rank == Rank::kUnranked &&
            graph.reported.insert({held_key, new_key}).second &&
            violation.empty()) {
          violation = "recursive acquisition of " + LockLabel(id, rank) +
                      "; this thread holds: " + DescribeStack(ts.held);
        }
        continue;
      }
      Node& held_node = graph.nodes[held_key];
      if (held_node.label.empty()) {
        held_node.label = LockLabel(held.id, held.rank);
      }
      // Cycle: the new lock already reaches a held lock, so adding
      // held -> new closes a loop in the acquired-after order.
      std::vector<NodeKey> path;
      if (violation.empty() && !graph.reported.count({new_key, held_key}) &&
          FindPath(graph, new_key, held_key, &path)) {
        graph.reported.insert({new_key, held_key});
        std::ostringstream out;
        out << "acquired-after cycle: acquiring " << LockLabel(id, rank)
            << " while holding " << LockLabel(held.id, held.rank)
            << ", but the reverse order was already observed: ";
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          const Node& from = graph.nodes.at(path[i]);
          out << from.label << " -> ";
          auto edge = from.out.find(path[i + 1]);
          if (i + 2 == path.size() && edge != from.out.end()) {
            out << graph.nodes.at(path[i + 1]).label << " [" << edge->second
                << "]";
          }
        }
        out << "; this thread holds: " << DescribeStack(ts.held);
        violation = out.str();
      }
      held_node.out.emplace(new_key, ctx.str());
    }
  }

  if (!violation.empty()) ReportViolation(ts, violation);
}

}  // namespace

void EnableTracking() {
  lockinstr::g_active.fetch_or(lockinstr::kRankTrackingBit,
                               std::memory_order_relaxed);
}

void DisableTracking() {
  lockinstr::g_active.fetch_and(~lockinstr::kRankTrackingBit,
                                std::memory_order_relaxed);
}

bool TrackingEnabled() {
  return (lockinstr::g_active.load(std::memory_order_relaxed) &
          lockinstr::kRankTrackingBit) != 0;
}

void ResetGraph() {
  Graph& graph = TheGraph();
  std::lock_guard<std::mutex> g(graph.mu);
  graph.nodes.clear();
  graph.reported.clear();
}

void ResetThreadState() {
  State().held.clear();
  State().in_hook = 0;
}

std::string HeldLocksDescription() { return DescribeStack(State().held); }

std::string AcquiredAfterGraphDot() {
  Graph& graph = TheGraph();
  std::ostringstream out;
  out << "digraph acquired_after {\n"
      << "  rankdir=TB;\n"
      << "  node [shape=box, fontname=\"monospace\"];\n";
  std::lock_guard<std::mutex> g(graph.mu);
  for (const auto& [key, node] : graph.nodes) {
    out << "  n" << key << " [label=\"" << node.label << "\"];\n";
  }
  for (const auto& [key, node] : graph.nodes) {
    for (const auto& [to, ctx] : node.out) {
      out << "  n" << key << " -> n" << to;
      if (graph.reported.count({key, to}) || graph.reported.count({to, key})) {
        out << " [color=red, penwidth=2]";
      }
      out << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace kgov::lockrank

namespace kgov::lockinstr {

// The entry points below reuse the tracker internals through the implicit
// using-directive of lockrank's unnamed namespace (same TU).

namespace {

using lockrank::Rank;

// Pops `id` from the held stack (search from the top: release order may
// differ from acquisition order). Missing entries are tolerated - the
// lock may have been acquired before tracking was armed.
void PopHeld(lockrank::ThreadState& ts, const void* id) {
  for (auto it = ts.held.rbegin(); it != ts.held.rend(); ++it) {
    if (it->id == id) {
      ts.held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

void Acquire(const void* id, Rank rank, const NativeLockOps& ops) {
  lockrank::ThreadState& ts = lockrank::State();
  const uint32_t active = g_active.load(std::memory_order_relaxed);
  const bool track = (active & kRankTrackingBit) != 0 && ts.in_hook == 0;
  if (track) lockrank::CheckAcquire(ts, id, rank);
  if ((active & kExplorerBit) != 0 && ts.in_hook == 0 &&
      sched::CurrentThreadRegistered()) {
    sched::internal::AcquireMutex(id, ops);
  } else {
    ops.lock(ops.handle);
  }
  if (track) ts.held.push_back({id, rank});
}

bool TryAcquire(const void* id, Rank rank, const NativeLockOps& ops) {
  lockrank::ThreadState& ts = lockrank::State();
  const uint32_t active = g_active.load(std::memory_order_relaxed);
  const bool track = (active & kRankTrackingBit) != 0 && ts.in_hook == 0;
  // The rank check fires on the ATTEMPT: a try-lock in inverted order is
  // the same latent deadlock, it only "works" until contention wins.
  if (track) lockrank::CheckAcquire(ts, id, rank);
  bool acquired;
  if ((active & kExplorerBit) != 0 && ts.in_hook == 0 &&
      sched::CurrentThreadRegistered()) {
    acquired = sched::internal::TryAcquireMutex(id, ops);
  } else {
    acquired = ops.try_lock(ops.handle);
  }
  if (acquired && track) ts.held.push_back({id, rank});
  return acquired;
}

void Release(const void* id, const NativeLockOps& ops) {
  lockrank::ThreadState& ts = lockrank::State();
  const uint32_t active = g_active.load(std::memory_order_relaxed);
  if ((active & kRankTrackingBit) != 0 && ts.in_hook == 0) PopHeld(ts, id);
  if ((active & kExplorerBit) != 0 && ts.in_hook == 0 &&
      sched::CurrentThreadRegistered()) {
    sched::internal::ReleaseMutex(id, ops);  // unlocks + wakes + yields
  } else {
    ops.unlock(ops.handle);
  }
}

bool ReleaseAndWait(const void* mu_id, const NativeLockOps& mu_ops,
                    const void* cv_id, bool timed) {
  lockrank::ThreadState& ts = lockrank::State();
  const uint32_t active = g_active.load(std::memory_order_relaxed);
  if ((active & kRankTrackingBit) != 0 && ts.in_hook == 0) PopHeld(ts, mu_id);
  return sched::internal::BlockOnCv(mu_id, mu_ops, cv_id, timed);
}

void CvNotify(const void* cv_id, bool notify_all) {
  lockrank::ThreadState& ts = lockrank::State();
  const uint32_t active = g_active.load(std::memory_order_relaxed);
  if ((active & kExplorerBit) != 0 && ts.in_hook == 0) {
    // Free (unregistered) threads route through too: their notifies must
    // wake modeled waiters or the explorer would miss real wakeups.
    sched::internal::NotifyCv(cv_id, notify_all);
  }
}

}  // namespace kgov::lockinstr
