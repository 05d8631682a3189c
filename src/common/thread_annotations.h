#ifndef AXMLX_COMMON_THREAD_ANNOTATIONS_H_
#define AXMLX_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety annotations, spelled with an AXMLX_ prefix so the
/// codebase has exactly one way to declare lock discipline. Under clang
/// with -Wthread-safety (wired behind AXMLX_WERROR in CMakeLists.txt) the
/// compiler proves every access to an AXMLX_GUARDED_BY member happens with
/// its mutex held; under gcc the macros expand to nothing and the project
/// linter's rule R9 still enforces that shared mutable state in obs/,
/// storage/, and compensation/ carries annotations at all. The library
/// starts no threads today; the macros keep any mutex added later honest.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && defined(__has_attribute)
#define AXMLX_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define AXMLX_THREAD_ANNOTATION_(x)  // no-op under gcc/msvc
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define AXMLX_CAPABILITY(x) AXMLX_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII guard type that acquires on construction, releases on
/// destruction.
#define AXMLX_SCOPED_CAPABILITY AXMLX_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only with `x` held.
#define AXMLX_GUARDED_BY(x) AXMLX_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself
/// may be read freely).
#define AXMLX_PT_GUARDED_BY(x) AXMLX_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires `...` held exclusively (caller locks).
#define AXMLX_REQUIRES(...) \
  AXMLX_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function requires `...` held at least shared.
#define AXMLX_REQUIRES_SHARED(...) \
  AXMLX_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires `...` exclusively and does not release it.
#define AXMLX_ACQUIRE(...) \
  AXMLX_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function acquires `...` shared and does not release it.
#define AXMLX_ACQUIRE_SHARED(...) \
  AXMLX_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases `...`.
#define AXMLX_RELEASE(...) \
  AXMLX_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function releases a shared hold on `...`.
#define AXMLX_RELEASE_SHARED(...) \
  AXMLX_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function attempts the lock; first argument is the success return value.
#define AXMLX_TRY_ACQUIRE(...) \
  AXMLX_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must be called with `...` NOT held (deadlock prevention).
#define AXMLX_EXCLUDES(...) \
  AXMLX_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime) that the calling thread holds `...`.
#define AXMLX_ASSERT_CAPABILITY(x) \
  AXMLX_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the capability `x`.
#define AXMLX_RETURN_CAPABILITY(x) AXMLX_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables analysis for one function (init/destroy paths).
#define AXMLX_NO_THREAD_SAFETY_ANALYSIS \
  AXMLX_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // AXMLX_COMMON_THREAD_ANNOTATIONS_H_
