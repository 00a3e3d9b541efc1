#ifndef MLCS_COMMON_MUTEX_H_
#define MLCS_COMMON_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/annotations.h"
#include "common/settings.h"

namespace mlcs {

namespace internal {
/// The MLCS_LOCK_DEBUG entry of the settings table (common/settings.h):
/// build default, env at first use, SetDeadlockDetectionForTesting. Inline
/// so the Release fast path is one relaxed load + branch around the bare
/// std::mutex — the facade's zero-overhead contract.
inline bool LockDebugEnabled() { return settings::g_lock_debug.Get() != 0; }
}  // namespace internal

/// The repo's one mutex type (DESIGN.md §11). A thin facade over
/// std::mutex that adds two things:
///
///  1. Thread-safety annotations: the class is a clang capability, so
///     `MLCS_GUARDED_BY(mu_)` members and `MLCS_REQUIRES(mu_)` helpers are
///     machine-checked wherever clang is available (scripts/check.sh
///     --analyze). Under g++ the annotations compile away.
///
///  2. A potential-deadlock detector (absl-style): when enabled, every
///     acquisition records "held → acquired" edges into a process-wide
///     lock-order graph and keeps a per-thread held-lock set. The first
///     acquisition that would close a cycle — including a self-deadlock —
///     aborts immediately, printing the acquiring stack plus the stack
///     captured when each conflicting edge was first recorded. A seeded
///     A→B / B→A inversion is therefore caught on the first run even if
///     the threads never actually interleave into the hang.
///
/// Detection defaults ON in Debug and sanitizer builds (mutex.cc compiled
/// with !NDEBUG or MLCS_ENABLE_LOCK_DEBUG) and OFF in Release, where
/// Lock()/Unlock() are a relaxed atomic flag test away from bare
/// std::mutex (measured within noise on abl-par-exec, EXPERIMENTS.md
/// abl-lockdisc). The MLCS_LOCK_DEBUG setting (0/1) overrides the build
/// default at first use.
///
/// Wait attribution (DESIGN.md §15): the uncontended path is a plain
/// try_lock (same single CAS as lock). Only when that fails — the thread
/// is actually about to block — is the blocking acquisition timed and
/// recorded into this mutex's named WaitSite
/// (`mlcs.wait.lock.<name>.*`), in both release and detector builds. The
/// resolved site pointer is cached per-mutex, so steady-state contention
/// cost is one clock pair plus a few relaxed atomic bumps.
class MLCS_CAPABILITY("mutex") Mutex {
 public:
  /// `name` must outlive the mutex (string literals); it labels the node
  /// in detector reports.
  explicit Mutex(const char* name = "mlcs::Mutex") : name_(name) {}
  ~Mutex();

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MLCS_ACQUIRE() {
    if (!internal::LockDebugEnabled()) {
      if (mu_.try_lock()) return;
      LockContended();
      return;
    }
    LockSlow();
  }
  void Unlock() MLCS_RELEASE() {
    if (!internal::LockDebugEnabled()) {
      mu_.unlock();
      return;
    }
    UnlockSlow();
  }
  [[nodiscard]] bool TryLock() MLCS_TRY_ACQUIRE(true) {
    if (!internal::LockDebugEnabled()) return mu_.try_lock();
    return TryLockSlow();
  }

  const char* name() const { return name_; }

  /// Whether acquisitions are currently being order-checked.
  static bool DeadlockDetectionEnabled();
  /// Overrides the build-default/env decision (tests force it on so the
  /// inversion death test triggers in every build type, Release included).
  static void SetDeadlockDetectionForTesting(bool enabled);
  /// Drops every recorded lock-order edge — lets a test seed a fresh graph
  /// without inheriting orderings from earlier tests in the process.
  static void ResetDeadlockGraphForTesting();

 private:
  friend class CondVar;

  /// Detector paths: held-set and lock-order-graph bookkeeping (mutex.cc).
  void LockSlow();
  void UnlockSlow();
  bool TryLockSlow();
  /// Blocking acquisition after a failed try_lock: times the block and
  /// records it into the wait site (mutex.cc).
  void LockContended();
  void RecordContendedWait(std::chrono::steady_clock::time_point start);

  std::mutex mu_;
  const char* name_;
  /// Lazily resolved obs::WaitSite*, cached after the first contended
  /// acquisition (type-erased: common/ must not depend on obs/ headers).
  std::atomic<void*> wait_site_{nullptr};
};

/// RAII lock for the scope — the only way code outside this header should
/// acquire a Mutex. Declared a scoped capability so clang tracks it.
class MLCS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) MLCS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() MLCS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* const mu_;
};

/// Condition variable paired with mlcs::Mutex. No predicate overloads on
/// purpose: clang's analysis cannot see through predicate lambdas, so wait
/// sites spell the loop (`while (!ReadyLocked()) cv_.Wait(lock);`) and keep
/// every guarded-member access inside an analyzable scope. Wait keeps the
/// detector's held-set honest: the mutex leaves the calling thread's held
/// set for the duration of the block and is re-checked on re-acquisition.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and blocks; re-acquires before
  /// returning. As with std::condition_variable, spurious wakeups happen —
  /// always wait in a predicate loop.
  void Wait(MutexLock& lock);

  /// Wait with a deadline; false when it returned because the deadline
  /// passed (the mutex is re-held either way).
  [[nodiscard]] bool WaitUntil(MutexLock& lock,
                               std::chrono::steady_clock::time_point deadline);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mlcs

#endif  // MLCS_COMMON_MUTEX_H_
