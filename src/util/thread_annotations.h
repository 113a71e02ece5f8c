// Clang Thread Safety Analysis annotations (no-ops off clang).
//
// These macros make the repo's lock discipline machine-checked: a field
// tagged KVEC_GUARDED_BY(mu) cannot be touched without holding `mu`, a
// function tagged KVEC_REQUIRES(mu) cannot be called without it, and a
// clang build with -Wthread-safety -Werror (the CI `lint` job, or
// scripts/run_static_analysis.sh locally) fails on any violation. Under
// GCC — the default build — every macro expands to nothing, so the
// annotations cost zero and the portable build proves they are inert.
//
// libstdc++'s std::mutex carries no capability attribute, so raw
// std::mutex members are invisible to the analysis. Lock-protected code
// uses the annotated wrappers in util/mutex.h (kvec::Mutex, kvec::MutexLock,
// kvec::CondVar) instead; the conventions — when GUARDED_BY applies and
// the policy for KVEC_NO_THREAD_SAFETY_ANALYSIS — are documented in
// docs/STATIC_ANALYSIS.md.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define KVEC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define KVEC_THREAD_ANNOTATION(x)  // no-op off clang
#endif

// Declares a type to be a capability (a lock). kvec::Mutex is the one
// capability type in this repo.
#define KVEC_CAPABILITY(name) KVEC_THREAD_ANNOTATION(capability(name))

// Declares an RAII type whose constructor acquires a capability and whose
// destructor releases it (kvec::MutexLock).
#define KVEC_SCOPED_CAPABILITY KVEC_THREAD_ANNOTATION(scoped_lockable)

// Field annotation: reads and writes require holding `x`.
#define KVEC_GUARDED_BY(x) KVEC_THREAD_ANNOTATION(guarded_by(x))

// Field annotation for pointers: the *pointee* is protected by `x` (the
// pointer itself may be read freely).
#define KVEC_PT_GUARDED_BY(x) KVEC_THREAD_ANNOTATION(pt_guarded_by(x))

// Function annotation: the caller must hold the listed capabilities.
#define KVEC_REQUIRES(...) \
  KVEC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// Function annotation: the caller must NOT hold the listed capabilities
// (the function acquires them itself; catches self-deadlock).
#define KVEC_EXCLUDES(...) KVEC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Function annotations: the function acquires / releases the capability
// (used on kvec::Mutex itself and on lock-transferring helpers).
#define KVEC_ACQUIRE(...) \
  KVEC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define KVEC_RELEASE(...) \
  KVEC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define KVEC_TRY_ACQUIRE(...) \
  KVEC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Function annotation: the returned reference is the given capability
// (lets accessors expose a member mutex without losing analysis).
#define KVEC_RETURN_CAPABILITY(x) KVEC_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch: disables the analysis for one function. The tree uses it
// nowhere; scripts/kvec_lint.py's `tsa-escape` rule flags any use outside
// this file that lacks a reasoned suppression (docs/STATIC_ANALYSIS.md).
#define KVEC_NO_THREAD_SAFETY_ANALYSIS \
  KVEC_THREAD_ANNOTATION(no_thread_safety_analysis)
