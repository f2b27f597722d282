#ifndef WSQ_COMMON_THREAD_ANNOTATIONS_H_
#define WSQ_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

// Clang thread-safety (capability) analysis macros plus the annotated
// synchronization primitives every shared-state module in this repo
// uses: wsq::Mutex, wsq::MutexLock, wsq::CondVar.
//
// Under Clang the macros expand to the capability-analysis attributes,
// so building with -DWSQ_THREAD_SAFETY_ANALYSIS=ON (which adds
// -Wthread-safety -Werror=thread-safety) turns lock-discipline
// violations — touching a WSQ_GUARDED_BY field without its mutex,
// calling a WSQ_REQUIRES function unlocked, leaking a lock on an early
// return — into build failures. Under GCC (which has no such analysis)
// they expand to nothing and the primitives behave identically.
//
// Conventions enforced here and by tools/wsqcheck.py:
//  - shared-state classes hold a wsq::Mutex, never a raw std::mutex;
//  - every Mutex member has at least one WSQ_GUARDED_BY peer field;
//  - locking goes through the MutexLock RAII guard — no bare
//    lock()/unlock() calls outside this header;
//  - condition waits go through wsq::CondVar with an explicit
//    `while (!predicate) cv.Wait(mu);` loop, which the analysis can see
//    through (lambda predicates are opaque to it).

#if defined(__clang__)
#define WSQ_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define WSQ_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability (e.g. a mutex type).
#define WSQ_CAPABILITY(x) WSQ_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define WSQ_SCOPED_CAPABILITY WSQ_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define WSQ_GUARDED_BY(x) WSQ_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field whose *pointee* is protected by `x`.
#define WSQ_PT_GUARDED_BY(x) WSQ_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the capability held on entry (and keeps it held).
#define WSQ_REQUIRES(...) \
  WSQ_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define WSQ_REQUIRES_SHARED(...) \
  WSQ_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (not held on entry, held on exit).
#define WSQ_ACQUIRE(...) \
  WSQ_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define WSQ_ACQUIRE_SHARED(...) \
  WSQ_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define WSQ_RELEASE(...) \
  WSQ_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define WSQ_RELEASE_SHARED(...) \
  WSQ_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define WSQ_TRY_ACQUIRE(b, ...) \
  WSQ_THREAD_ANNOTATION__(try_acquire_capability(b, __VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrant entry points that
/// lock internally; deadlock guard).
#define WSQ_EXCLUDES(...) \
  WSQ_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Declares a lock-acquisition-order edge (documentation; checked only
/// under -Wthread-safety-beta).
#define WSQ_ACQUIRED_BEFORE(...) \
  WSQ_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define WSQ_ACQUIRED_AFTER(...) \
  WSQ_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function returns a reference to the mutex guarding its result.
#define WSQ_RETURN_CAPABILITY(x) \
  WSQ_THREAD_ANNOTATION__(lock_returned(x))

/// Runtime assertion that the capability is held (trusted by analysis).
#define WSQ_ASSERT_CAPABILITY(x) \
  WSQ_THREAD_ANNOTATION__(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use
/// needs a comment explaining why the analysis cannot see the truth.
#define WSQ_NO_THREAD_SAFETY_ANALYSIS \
  WSQ_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace wsq {

/// std::mutex annotated as a capability so WSQ_GUARDED_BY / WSQ_REQUIRES
/// can name it. Exposes BasicLockable lock()/unlock() so CondVar
/// (condition_variable_any) can suspend on it; all other code locks via
/// MutexLock.
class WSQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() WSQ_ACQUIRE() { mu_.lock(); }
  void Unlock() WSQ_RELEASE() { mu_.unlock(); }
  bool TryLock() WSQ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable surface for std::condition_variable_any; not for
  // direct use (tools/wsqcheck.py flags bare lock()/unlock() calls).
  void lock() WSQ_ACQUIRE() { mu_.lock(); }
  void unlock() WSQ_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock guard over wsq::Mutex, relockable for code that must drop
/// the lock mid-scope (e.g. delivering callbacks): the destructor
/// releases the mutex only if it is still held.
class WSQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) WSQ_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->Lock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() WSQ_RELEASE() {
    if (held_) mu_->Unlock();
  }

  /// Temporarily drops the lock; pair with Lock() before scope end or
  /// let the destructor observe the released state.
  void Unlock() WSQ_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

  void Lock() WSQ_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_;
};

/// Condition variable bound to wsq::Mutex. Waits require the mutex held
/// (checked under the analysis); use an explicit predicate loop:
///   while (!ready) cv.Wait(mu);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) WSQ_REQUIRES(mu) { cv_.wait(mu); }

  /// Returns std::cv_status::timeout if `micros` elapsed first.
  std::cv_status WaitForMicros(Mutex& mu, int64_t micros)
      WSQ_REQUIRES(mu) {
    return cv_.wait_for(mu, std::chrono::microseconds(micros));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace wsq

#endif  // WSQ_COMMON_THREAD_ANNOTATIONS_H_
