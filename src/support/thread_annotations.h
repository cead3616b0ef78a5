/**
 * @file
 * Clang thread-safety annotation macros.
 *
 * The repo's determinism contract (every stage bit-identical at any
 * thread count) rests on a locking discipline that code review alone
 * cannot guard. These macros make the discipline machine-checked:
 * under clang with `-Wthread-safety` (the `clang` CMake preset
 * builds the full tree with `-Werror=thread-safety`), a read of a
 * `BP_GUARDED_BY(mu)` member without holding `mu`, or a call to a
 * `BP_REQUIRES(mu)` method outside the lock, is a compile error.
 * On compilers without the attribute (gcc) every macro expands to
 * nothing, so the annotations are free documentation there.
 *
 * The macro set mirrors the capability vocabulary used by Abseil and
 * the clang documentation:
 *
 *   BP_CAPABILITY(name)     — type declares a capability ("mutex")
 *   BP_SCOPED_CAPABILITY    — RAII type acquiring on construction
 *   BP_GUARDED_BY(mu)       — member readable/writable only under mu
 *   BP_PT_GUARDED_BY(mu)    — pointee guarded by mu
 *   BP_REQUIRES(mu)         — caller must hold mu (exclusive)
 *   BP_REQUIRES_SHARED(mu)  — caller must hold mu (shared)
 *   BP_ACQUIRE(mu)/BP_RELEASE(mu)        — function acquires/releases
 *   BP_TRY_ACQUIRE(ok, mu)  — conditional acquire, held iff == ok
 *   BP_EXCLUDES(mu)         — caller must NOT hold mu
 *   BP_ASSERT_CAPABILITY(mu)— runtime assertion that mu is held
 *   BP_RETURN_CAPABILITY(mu)— getter returning a reference to mu
 *   BP_NO_THREAD_SAFETY_ANALYSIS — opt a definition out entirely
 *
 * Annotate with the lock *member* (e.g. `BP_GUARDED_BY(mutex_)`), not
 * a string. The annotated lock types live in support/mutex.h; the
 * repo linter (tools/lint/bp_lint.py) rejects raw std::mutex members
 * that carry no BP_GUARDED_BY discipline at all.
 */

#ifndef BP_SUPPORT_THREAD_ANNOTATIONS_H
#define BP_SUPPORT_THREAD_ANNOTATIONS_H

#if defined(__clang__) && defined(__has_attribute)
#define BP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define BP_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

#define BP_CAPABILITY(x) BP_THREAD_ANNOTATION_(capability(x))
#define BP_SCOPED_CAPABILITY BP_THREAD_ANNOTATION_(scoped_lockable)

#define BP_GUARDED_BY(x) BP_THREAD_ANNOTATION_(guarded_by(x))
#define BP_PT_GUARDED_BY(x) BP_THREAD_ANNOTATION_(pt_guarded_by(x))

#define BP_REQUIRES(...) \
    BP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define BP_REQUIRES_SHARED(...) \
    BP_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

#define BP_ACQUIRE(...) \
    BP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define BP_ACQUIRE_SHARED(...) \
    BP_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define BP_RELEASE(...) \
    BP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define BP_RELEASE_SHARED(...) \
    BP_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

#define BP_TRY_ACQUIRE(...) \
    BP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

#define BP_EXCLUDES(...) BP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

#define BP_ASSERT_CAPABILITY(x) \
    BP_THREAD_ANNOTATION_(assert_capability(x))
#define BP_RETURN_CAPABILITY(x) BP_THREAD_ANNOTATION_(lock_returned(x))

#define BP_NO_THREAD_SAFETY_ANALYSIS \
    BP_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif // BP_SUPPORT_THREAD_ANNOTATIONS_H
