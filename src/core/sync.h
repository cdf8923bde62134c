#ifndef VDB_CORE_SYNC_H_
#define VDB_CORE_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace vdb {

/// Compiler-enforced lock discipline (DESIGN.md §9.1). Every mutex in
/// src/ is one of the wrappers below, every guarded field carries
/// VDB_GUARDED_BY, and every "caller holds the lock" private method
/// carries VDB_REQUIRES — so Clang Thread Safety Analysis
/// (-Wthread-safety -Werror, the `thread-safety` CI job) rejects
/// unlocked reads, lock-order inversions against the §9.1 table, and
/// leaked scoped locks at compile time. The VDBMS bug study
/// (arXiv 2506.02617) ranks concurrency defects among the least
/// reproducible classes; this moves their detection from TSan's
/// schedule-dependent runtime net to a deterministic compile-time gate.
///
/// Under GCC (and any non-Clang compiler) every macro expands to
/// nothing and the wrappers compile down to the std types they hold, so
/// codegen and behaviour are identical across toolchains — the
/// annotations cost nothing where they cannot be checked.
///
/// Conventions:
///  - Fields: `T x VDB_GUARDED_BY(mu_);` (pointer pointees:
///    VDB_PT_GUARDED_BY).
///  - "Locked" private methods: `void FooLocked() VDB_REQUIRES(mu_);`.
///  - Lock order: the *outer* mutex member declares
///    `VDB_ACQUIRED_BEFORE(inner_)`; the §9.1 table is the
///    source of truth and every edge there appears as an annotation.
///  - Deliberate escape hatches (single-threaded phases, loop-thread
///    ownership) use VDB_NO_THREAD_SAFETY_ANALYSIS with a comment
///    saying who guarantees exclusion.

#if defined(__clang__)
#define VDB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VDB_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// A type that is a lock (vdb::Mutex below).
#define VDB_CAPABILITY(x) VDB_THREAD_ANNOTATION(capability(x))

/// An RAII type whose lifetime equals a hold of some capability.
#define VDB_SCOPED_CAPABILITY VDB_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be touched while holding `x`.
#define VDB_GUARDED_BY(x) VDB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer/smart-pointer field whose *pointee* is protected by `x`
/// (the pointer value itself may be read freely).
#define VDB_PT_GUARDED_BY(x) VDB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Caller must hold the capability.
#define VDB_REQUIRES(...) \
  VDB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires / releases the capability.
#define VDB_ACQUIRE(...) VDB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VDB_RELEASE(...) VDB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define VDB_TRY_ACQUIRE(...) \
  VDB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (self-deadlock guard).
#define VDB_EXCLUDES(...) VDB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Lock-order edges (DESIGN.md §9.1): declared on the mutex members
/// themselves. Checked under -Wthread-safety-beta.
#define VDB_ACQUIRED_BEFORE(...) \
  VDB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define VDB_ACQUIRED_AFTER(...) \
  VDB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returns a reference to the given capability (accessor
/// pattern for cross-class lock-order edges).
#define VDB_RETURN_CAPABILITY(x) VDB_THREAD_ANNOTATION(lock_returned(x))

/// Assert (at runtime trust, not by acquisition) that the capability is
/// held — for callbacks invoked under a lock taken elsewhere.
#define VDB_ASSERT_CAPABILITY(x) \
  VDB_THREAD_ANNOTATION(assert_capability(x))

/// Opt a function out of the analysis. Requires a comment naming the
/// exclusion guarantee (e.g. "loop-thread-owned", "callers serialize").
#define VDB_NO_THREAD_SAFETY_ANALYSIS \
  VDB_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Annotated exclusive mutex. Same semantics and cost as the
/// `std::mutex` it wraps; the capability attribute is what lets the
/// analysis track holds across VDB_GUARDED_BY / VDB_REQUIRES sites.
class VDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() VDB_ACQUIRE() { mu_.lock(); }
  void Unlock() VDB_RELEASE() { mu_.unlock(); }
  bool TryLock() VDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped exclusive hold of a Mutex (the repo's `std::lock_guard`
/// replacement). Non-movable: the hold spans exactly this scope.
class VDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() VDB_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with vdb::Mutex. Wait takes the Mutex the
/// caller already holds (VDB_REQUIRES keeps the analysis aware the hold
/// survives the wait). There is no predicate-lambda overload on
/// purpose: TSA analyzes lambdas as separate functions with no
/// capability context, so predicates reading guarded state must be
/// written as explicit `while (!pred) cv.Wait(mu);` loops in the
/// annotated caller.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, reacquires `mu` before return.
  void Wait(Mutex& mu) VDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // hold passes back to the caller's scope
  }

  /// Timed wait; returns false on timeout (lock is held either way).
  template <class Clock, class Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      VDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_until(lk, deadline) == std::cv_status::no_timeout;
    lk.release();
    return ok;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vdb

#endif  // VDB_CORE_SYNC_H_
