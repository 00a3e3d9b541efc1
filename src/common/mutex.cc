#include "common/mutex.h"

#include <execinfo.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/wait_stats.h"

namespace mlcs {
namespace {

/// ----- potential-deadlock detector (DESIGN.md §11) -------------------------
///
/// Per-thread held-lock stacks plus a process-wide lock-order graph keyed
/// by mutex address. Acquiring M while holding H records the edge H → M;
/// if M already reaches H through recorded edges, the new edge closes a
/// cycle and the process aborts with the acquiring stack and the stack
/// captured when each conflicting edge was first recorded. Edges are
/// checked once (on first sighting), so the steady-state cost of a known
/// ordering is two hash lookups under the graph mutex. Destroyed mutexes
/// leave the graph, which both bounds its size and keeps address reuse
/// from fabricating orderings.

constexpr int kMaxFrames = 32;

struct StackTrace {
  void* frames[kMaxFrames];
  int depth = 0;
};

void CaptureStack(StackTrace* st) {
  st->depth = ::backtrace(st->frames, kMaxFrames);
}

/// Reporting uses raw fprintf, not MLCS_LOG: the logger takes its own
/// facade mutex, and the report path runs with the graph mutex held.
void PrintStack(const StackTrace& st, const char* indent) {
  char** symbols = ::backtrace_symbols(st.frames, st.depth);
  for (int i = 0; i < st.depth; ++i) {
    std::fprintf(stderr, "%s%s\n", indent,
                 symbols != nullptr ? symbols[i] : "<unresolved frame>");
  }
  std::free(symbols);
}

uint64_t CurrentThreadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

struct Edge {
  StackTrace stack;  // where this "acquired while holding" was first seen
  uint64_t tid = 0;
};

using EdgeMap = std::unordered_map<const Mutex*, Edge>;
using LockGraph = std::unordered_map<const Mutex*, EdgeMap>;

/// Leaky singletons: mutexes locked during static destruction (leaked
/// globals like the ThreadPool) must still find live detector state.
LockGraph& Graph() {
  static auto* graph = new LockGraph();
  return *graph;
}

/// Deliberately a raw std::mutex — the detector cannot bookkeep itself.
std::mutex& GraphMutex() {
  static auto* mu = new std::mutex();
  return *mu;
}

thread_local std::vector<const Mutex*> tls_held;

bool Enabled() { return internal::LockDebugEnabled(); }

[[noreturn]] void ReportSelfDeadlock(const Mutex* mu) {
  StackTrace now;
  CaptureStack(&now);
  std::fprintf(stderr,
               "\n[mlcs::Mutex] SELF-DEADLOCK: thread %llu re-acquiring "
               "\"%s\" (%p) it already holds (mlcs::Mutex is "
               "non-recursive)\n  acquisition stack:\n",
               static_cast<unsigned long long>(CurrentThreadId()), mu->name(),
               static_cast<const void*>(mu));
  PrintStack(now, "    ");
  std::fflush(stderr);
  std::abort();
}

/// DFS over the order graph; fills `path` with from → … → to when
/// reachable. Caller holds GraphMutex().
bool FindPath(const Mutex* from, const Mutex* to,
              std::vector<const Mutex*>* path) {
  std::unordered_map<const Mutex*, const Mutex*> parent;
  std::vector<const Mutex*> stack{from};
  parent.emplace(from, nullptr);
  const LockGraph& graph = Graph();
  while (!stack.empty()) {
    const Mutex* node = stack.back();
    stack.pop_back();
    if (node == to) {
      for (const Mutex* n = to; n != nullptr; n = parent.at(n)) {
        path->push_back(n);
      }
      std::reverse(path->begin(), path->end());
      return true;
    }
    auto it = graph.find(node);
    if (it == graph.end()) continue;
    for (const auto& [next, edge] : it->second) {
      if (parent.emplace(next, node).second) stack.push_back(next);
    }
  }
  return false;
}

/// Caller holds GraphMutex(); `path` runs acquired → … → holder.
[[noreturn]] void ReportCycle(const Mutex* holder, const Mutex* acquired,
                              const std::vector<const Mutex*>& path) {
  StackTrace now;
  CaptureStack(&now);
  std::fprintf(stderr,
               "\n[mlcs::Mutex] POTENTIAL DEADLOCK (lock-order cycle): "
               "thread %llu is acquiring \"%s\" (%p) while holding \"%s\" "
               "(%p)\n  acquisition stack:\n",
               static_cast<unsigned long long>(CurrentThreadId()),
               acquired->name(), static_cast<const void*>(acquired),
               holder->name(), static_cast<const void*>(holder));
  PrintStack(now, "    ");
  std::fprintf(stderr,
               "  ...but the inverse ordering was already established:\n");
  const LockGraph& graph = Graph();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Edge& edge = graph.at(path[i]).at(path[i + 1]);
    std::fprintf(stderr,
                 "  edge \"%s\" -> \"%s\" first recorded on thread %llu "
                 "at:\n",
                 path[i]->name(), path[i + 1]->name(),
                 static_cast<unsigned long long>(edge.tid));
    PrintStack(edge.stack, "    ");
  }
  std::fflush(stderr);
  std::abort();
}

/// Order-checks an impending blocking acquisition of `mu`. Runs *before*
/// the underlying lock: two threads mid-flight into an A→B / B→A hang each
/// record their edge first, so the second records the cycle and aborts
/// instead of deadlocking silently.
void PreAcquireCheck(const Mutex* mu) {
  for (const Mutex* held : tls_held) {
    if (held == mu) ReportSelfDeadlock(mu);
  }
  if (tls_held.empty()) return;
  std::lock_guard<std::mutex> g(GraphMutex());
  for (const Mutex* held : tls_held) {
    EdgeMap& out = Graph()[held];
    if (out.find(mu) != out.end()) continue;  // ordering already vetted
    std::vector<const Mutex*> path;
    if (FindPath(mu, held, &path)) ReportCycle(held, mu, path);
    Edge edge;
    CaptureStack(&edge.stack);
    edge.tid = CurrentThreadId();
    out.emplace(mu, std::move(edge));
  }
}

void PushHeld(const Mutex* mu) { tls_held.push_back(mu); }

void RemoveHeld(const Mutex* mu) {
  // Back-to-front: locks release in roughly LIFO order. A miss is legal
  // only when detection was toggled on mid-process (testing API).
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (*it == mu) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

Mutex::~Mutex() {
  if (!Enabled()) return;
  std::lock_guard<std::mutex> g(GraphMutex());
  Graph().erase(this);
  for (auto& [node, out] : Graph()) out.erase(this);
}

void Mutex::LockContended() {
  auto start = std::chrono::steady_clock::now();
  mu_.lock();
  RecordContendedWait(start);
}

void Mutex::RecordContendedWait(
    std::chrono::steady_clock::time_point start) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  auto* site = static_cast<obs::WaitSite*>(
      wait_site_.load(std::memory_order_acquire));
  if (site == nullptr) {
    // GetSite is lock-free, so resolving the MetricsRegistry mutex's own
    // site cannot recurse. Racing resolvers converge on one site (or a
    // benign duplicate Export merges).
    site = obs::WaitStats::Global().GetSite(obs::WaitKind::kLock, name_);
    wait_site_.store(site, std::memory_order_release);
  }
  site->RecordWaitNs(static_cast<uint64_t>(ns));
}

void Mutex::LockSlow() {
  PreAcquireCheck(this);
  // Wait attribution mirrors the release path: only an actually-blocking
  // acquisition pays for a clock pair and a site record.
  if (!mu_.try_lock()) {
    auto start = std::chrono::steady_clock::now();
    mu_.lock();
    RecordContendedWait(start);
  }
  PushHeld(this);
}

void Mutex::UnlockSlow() {
  RemoveHeld(this);
  mu_.unlock();
}

bool Mutex::TryLockSlow() {
  // A failed or succeeded try-lock can't block, so no order edge is
  // recorded (try-then-back-off is a legitimate inversion-breaking
  // pattern) — but try-locking a mutex this thread holds is still UB.
  for (const Mutex* held : tls_held) {
    if (held == this) ReportSelfDeadlock(this);
  }
  if (!mu_.try_lock()) return false;
  PushHeld(this);
  return true;
}

bool Mutex::DeadlockDetectionEnabled() { return Enabled(); }

void Mutex::SetDeadlockDetectionForTesting(bool enabled) {
  settings::g_lock_debug.Set(enabled ? 1 : 0);
}

void Mutex::ResetDeadlockGraphForTesting() {
  std::lock_guard<std::mutex> g(GraphMutex());
  Graph().clear();
}

void CondVar::Wait(MutexLock& lock) {
  Mutex* mu = lock.mu_;
  const bool debug = Mutex::DeadlockDetectionEnabled();
  // The wait releases the mutex while blocked: mirror that in the held
  // set, and order-check the re-acquisition like any other.
  if (debug) RemoveHeld(mu);
  std::unique_lock<std::mutex> ul(mu->mu_, std::adopt_lock);
  cv_.wait(ul);
  ul.release();
  if (debug) {
    PreAcquireCheck(mu);
    PushHeld(mu);
  }
}

bool CondVar::WaitUntil(MutexLock& lock,
                        std::chrono::steady_clock::time_point deadline) {
  Mutex* mu = lock.mu_;
  const bool debug = Mutex::DeadlockDetectionEnabled();
  if (debug) RemoveHeld(mu);
  std::unique_lock<std::mutex> ul(mu->mu_, std::adopt_lock);
  const bool no_timeout = cv_.wait_until(ul, deadline) ==
                          std::cv_status::no_timeout;
  ul.release();
  if (debug) {
    PreAcquireCheck(mu);
    PushHeld(mu);
  }
  return no_timeout;
}

}  // namespace mlcs
