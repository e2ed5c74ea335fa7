// Clang thread-safety annotations + the repo's annotated sync primitives
// (DESIGN.md §Static analysis, D10).
//
// Every mutex-protected member in the concurrent layers (net, harness,
// obs, log) is declared with HTS_GUARDED_BY and every locking function
// carries HTS_REQUIRES/HTS_ACQUIRE/HTS_RELEASE, so clang's -Wthread-safety
// turns "forgot the lock" and "wrong lock" into compile errors (CI builds
// src/ with -Wthread-safety -Werror). Under GCC (and any compiler without
// the attributes) the macros expand to nothing.
//
// The std primitives are wrapped rather than used directly because
// libstdc++'s std::mutex/std::scoped_lock carry no capability attributes —
// an unwrapped GUARDED_BY member could never be satisfied. The wrappers
// are zero-overhead shims:
//
//   sync::Mutex + sync::MutexLock            exclusive capability
//   sync::MutexTryLock                       exclusive, if free right now
//   sync::MutexUnlock                        released for a scope (parking)
//   sync::CondVar                            condition variable over Mutex
//
// Locking discipline (enforced by tools/hts_lint.py): RAII guards only —
// no naked .lock()/.unlock() calls outside this header.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define HTS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef HTS_THREAD_ANNOTATION
#define HTS_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// A type that acts as a lock: the analysis tracks whether it is held.
#define HTS_CAPABILITY(x) HTS_THREAD_ANNOTATION(capability(x))
/// RAII type whose constructor acquires and destructor releases.
#define HTS_SCOPED_CAPABILITY HTS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while the capability is held.
#define HTS_GUARDED_BY(x) HTS_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose pointee is guarded by the capability.
#define HTS_PT_GUARDED_BY(x) HTS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Caller must hold the capability (exclusively / at least shared).
#define HTS_REQUIRES(...) \
  HTS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define HTS_REQUIRES_SHARED(...) \
  HTS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires / releases the capability (exclusive or shared).
#define HTS_ACQUIRE(...) HTS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define HTS_ACQUIRE_SHARED(...) \
  HTS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define HTS_RELEASE(...) HTS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define HTS_RELEASE_SHARED(...) \
  HTS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function succeeds (returns the first argument) only with it acquired.
#define HTS_TRY_ACQUIRE(...) \
  HTS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// The calling thread is known to hold the capability (a checked fact the
/// analysis cannot derive, e.g. "this runs on the thread that owns it").
#define HTS_ASSERT_CAPABILITY(x) HTS_THREAD_ANNOTATION(assert_capability(x))
/// Caller must NOT hold the capability (deadlock documentation).
#define HTS_EXCLUDES(...) HTS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the capability guarding its result.
#define HTS_RETURN_CAPABILITY(x) HTS_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch — use only with a comment explaining why.
#define HTS_NO_THREAD_SAFETY_ANALYSIS \
  HTS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace hts::sync {

/// Annotated exclusive mutex (std::mutex underneath).
class HTS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HTS_ACQUIRE() { mu_.lock(); }
  void unlock() HTS_RELEASE() { mu_.unlock(); }
  bool try_lock() HTS_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  /// Tells the analysis the caller holds this mutex; callers document why.
  void assert_held() const HTS_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// RAII exclusive guard over Mutex (the only sanctioned way to hold one).
class HTS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HTS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HTS_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII try-lock over Mutex: holds it for the scope iff owns_lock(). The
/// analysis cannot follow a try that fails, so it treats the scope as
/// holding the mutex either way: code under the guard tests owns_lock()
/// before it touches guarded state.
class HTS_SCOPED_CAPABILITY MutexTryLock {
 public:
  explicit MutexTryLock(Mutex& mu) HTS_ACQUIRE(mu)
      : mu_(mu), owns_(mu.try_lock()) {}
  ~MutexTryLock() HTS_RELEASE() {
    if (owns_) mu_.unlock();
  }
  MutexTryLock(const MutexTryLock&) = delete;
  MutexTryLock& operator=(const MutexTryLock&) = delete;

  [[nodiscard]] bool owns_lock() const { return owns_; }

 private:
  Mutex& mu_;
  const bool owns_;
};

/// The reverse of MutexLock: releases a held Mutex for its scope and takes
/// it back on exit — a loop thread that owns a mutex while it runs lets go
/// of it while it is parked.
class HTS_SCOPED_CAPABILITY MutexUnlock {
 public:
  explicit MutexUnlock(Mutex& mu) HTS_RELEASE(mu) : mu_(mu) { mu_.unlock(); }
  ~MutexUnlock() HTS_RELEASE() { mu_.lock(); }
  MutexUnlock(const MutexUnlock&) = delete;
  MutexUnlock& operator=(const MutexUnlock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over sync::Mutex. wait/wait_until release and
/// reacquire the mutex internally — invisible to (and balanced for) the
/// analysis, hence the plain HTS_REQUIRES. Callers re-check their predicate
/// in a loop in the annotated scope, so guarded reads stay visible to the
/// analysis (no predicate lambdas, which it cannot see into).
class CondVar {
 public:
  void wait(Mutex& mu) HTS_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      HTS_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hts::sync
