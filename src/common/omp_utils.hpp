// Thin wrappers over OpenMP so the rest of the code never includes
// <omp.h> directly and single-threaded builds behave identically.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mio {

/// Number of hardware threads OpenMP will use by default.
inline int MaxThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Calling thread's id inside a parallel region (0 outside).
inline int ThreadId() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Number of threads in the current team (1 outside a parallel region).
inline int TeamSize() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// Clamps a requested thread count to [1, max] where max defaults to the
/// OpenMP runtime limit; 0 means "use all".
inline int ResolveThreads(int requested) {
  int hw = MaxThreads();
  if (requested <= 0) return hw;
  return requested < 1 ? 1 : requested;
}

}  // namespace mio
