// A process-wide count of tensor buffer allocations.
//
// Tensor storage is a plain std::vector<float> that the tensor owns and
// frees; nothing is recycled. Per-key serving state and microbatch scratch
// live in each shard's ShardPool/ScratchArena (util/arena.h), and every
// other buffer comes from malloc.
//
// This counter remains only because the serving benchmark's layer walk
// (perfbench/src/layer_walk.cc) reads BufferPool::Global().stats() for its
// tensor.pool_* metrics, and the benchmark's files are frozen. Each tensor
// buffer allocation (Zeros/Full, op outputs, gradients) adds one to
// `misses`; `hits` is always 0. Renaming it waits for a change to the
// benchmark.
#pragma once

#include <atomic>
#include <cstdint>

namespace kvec {

class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;    // always 0: nothing is recycled
    uint64_t misses = 0;  // tensor buffer allocations
  };

  // Process-wide counter used by Tensor. Never destroyed (tensors may die
  // during static teardown).
  static BufferPool& Global() {
    static auto* pool = new BufferPool();
    return *pool;
  }

  void CountAllocation() {
    allocations_.fetch_add(1, std::memory_order_relaxed);
  }

  Stats stats() const {
    return {0, allocations_.load(std::memory_order_relaxed)};
  }

 private:
  BufferPool() = default;

  std::atomic<uint64_t> allocations_{0};
};

}  // namespace kvec
