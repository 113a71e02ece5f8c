#include "util/allocator_tuning.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace kvec {

void PinMmapThreshold(size_t bytes) {
#if defined(__GLIBC__)
  // Setting M_MMAP_THRESHOLD explicitly is also what disables glibc's
  // dynamic threshold.
  mallopt(M_MMAP_THRESHOLD, static_cast<int>(bytes));
#else
  (void)bytes;
#endif
}

}  // namespace kvec
