// The process-wide tensor allocation counter. The serving benchmark's
// layer walk reads BufferPool::Global().stats() around its StreamServer
// calls for tensor.pool_acquires_per_item, so this pins what it counts:
// one `misses` per tensor-owned buffer, from any thread, and nothing for
// adopted vectors.
#include "tensor/buffer_pool.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace kvec {
namespace {

uint64_t Allocations() { return BufferPool::Global().stats().misses; }

TEST(BufferPoolTest, CountsEveryTensorBufferAllocation) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromData(2, 2, {5, 6, 7, 8});

  uint64_t before = Allocations();
  Tensor sum = ops::Add(a, b);  // op output, no gradient
  EXPECT_EQ(Allocations(), before + 1);

  before = Allocations();
  Tensor zeros = Tensor::Zeros(3, 3, /*requires_grad=*/true);
  EXPECT_EQ(Allocations(), before + 1);

  before = Allocations();
  zeros.grad();  // gradient buffer, allocated lazily
  EXPECT_EQ(Allocations(), before + 1);

  before = Allocations();
  Tensor adopted = Tensor::FromData(1, 3, {1, 2, 3});
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(BufferPool::Global().stats().hits, 0u);

  // Allocations on other threads land in the same counter.
  constexpr int kPerThread = 100;
  before = Allocations();
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) Tensor::Zeros(1, 4);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Allocations(), before + 2 * kPerThread);
}

}  // namespace
}  // namespace kvec
