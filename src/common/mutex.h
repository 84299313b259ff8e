// Annotated mutex wrappers for Clang's static thread-safety analysis.
//
// Every multithreaded surface in the repo locks through past::Mutex /
// past::MutexLock instead of bare std::mutex (enforced by the past_lint
// bare-mutex rule): under Clang the PAST_* macros expand to the
// thread-safety attributes and `-Wthread-safety -Werror=thread-safety`
// proves lock discipline at compile time — a field marked
// PAST_GUARDED_BY(mu) cannot be read or written without holding `mu`, a
// function marked PAST_REQUIRES(mu) cannot be called without it. Under
// compilers without the analysis (GCC) the macros expand to nothing and the
// wrappers cost exactly one inlined forwarding call.
//
// Annotation conventions (DESIGN.md §13):
//   - shared data members:        T field PAST_GUARDED_BY(mu_);
//   - pointed-to shared data:     T* ptr PAST_PT_GUARDED_BY(mu_);
//   - must-hold member functions: void F() PAST_REQUIRES(mu_);
//   - must-NOT-hold functions:    void F() PAST_EXCLUDES(mu_);
//   - scoped locking:             MutexLock lock(&mu_);
//   - condition waits:            cv_.Wait(&mu_) inside a MutexLock scope.
//
// The compile-fail probe tests/lint/thread_safety_violation.cc pins that an
// unlocked access to a PAST_GUARDED_BY field really breaks a Clang build.
#pragma once

#include <condition_variable>
#include <mutex>

// Thread-safety attributes are a Clang extension; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html. The __has_attribute
// probe keeps the header correct on any future compiler that grows them.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define PAST_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PAST_THREAD_ANNOTATION
#define PAST_THREAD_ANNOTATION(x)
#endif

#define PAST_CAPABILITY(name) PAST_THREAD_ANNOTATION(capability(name))
#define PAST_SCOPED_CAPABILITY PAST_THREAD_ANNOTATION(scoped_lockable)
#define PAST_GUARDED_BY(x) PAST_THREAD_ANNOTATION(guarded_by(x))
#define PAST_PT_GUARDED_BY(x) PAST_THREAD_ANNOTATION(pt_guarded_by(x))
#define PAST_REQUIRES(...) \
  PAST_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PAST_ACQUIRE(...) PAST_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PAST_RELEASE(...) PAST_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PAST_TRY_ACQUIRE(...) \
  PAST_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PAST_EXCLUDES(...) PAST_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PAST_RETURN_CAPABILITY(x) PAST_THREAD_ANNOTATION(lock_returned(x))
#define PAST_NO_THREAD_SAFETY_ANALYSIS \
  PAST_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace past {

// A std::mutex the analysis understands. Lock discipline on any state the
// mutex protects is declared with PAST_GUARDED_BY / PAST_REQUIRES and
// checked at compile time under Clang.
class PAST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PAST_ACQUIRE() { mu_.lock(); }
  void Unlock() PAST_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool TryLock() PAST_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock over a past::Mutex — the only sanctioned way to hold one.
// Declaring the scope tells the analysis the capability is held until the
// end of the block.
class PAST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PAST_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PAST_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable over past::Mutex. Wait() atomically releases the mutex
// and reacquires it before returning, so the caller's capability set is
// unchanged — which is exactly what PAST_REQUIRES(mu) declares.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Blocks until notified. Spurious wakeups happen; callers loop on their
  // predicate (or use the predicate overload below).
  void Wait(Mutex* mu) PAST_REQUIRES(mu) {
    // The analysis cannot see through std::condition_variable's
    // release-and-reacquire, so this body opts out; the contract the caller
    // sees (mutex held before and after) is still enforced at every call
    // site by PAST_REQUIRES.
    WaitInternal(mu);
  }

  template <typename Predicate>
  void Wait(Mutex* mu, Predicate pred) PAST_REQUIRES(mu) {
    while (!pred()) {
      Wait(mu);
    }
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  void WaitInternal(Mutex* mu) PAST_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  std::condition_variable cv_;
};

}  // namespace past
