// Process-wide C allocator settings for long-running serving processes.
//
// glibc serves large allocations with their own mmap, but it raises that
// size limit to the size of any mmap'd block it frees (up to 32 MiB). A
// serving process that checkpoints frees tens of MiB of encode/decode
// buffers after its first round trip, so every later checkpoint buffer
// and snapshot writer comes from the main heap instead. There the
// transients interleave with long-lived shard state, the heap cannot
// shrink past them, and resident memory steps up cycles after the state
// itself stopped growing. Pinning the limit keeps multi-MiB transients on
// mmap, where a free hands the pages straight back to the OS.
#pragma once

#include <cstddef>

namespace kvec {

// Allocations of at least this many bytes get their own mapping.
constexpr size_t kServingMmapThresholdBytes = size_t{1} << 20;

// Fixes the allocator's mmap threshold at `bytes` and turns off glibc's
// upward adjustment. Affects the whole process; call it once at the start
// of a serving command. A no-op on other C libraries.
void PinMmapThreshold(size_t bytes);

}  // namespace kvec
