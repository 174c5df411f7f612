// Refills the calling thread's pooled tensor-arena blocks with NaN, shared
// by the tests (test_core, test_autograd) that show no op reads a recycled
// block before writing it.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "nn/arena.h"
#include "nn/tensor.h"

namespace eagle::nn::arena_test {

// Fills every block the calling thread's arena has pooled, and one more
// per size class up to 2^20 floats, with NaN: a tensor that reads a
// recycled element before writing it reads NaN. Returns the blocks
// filled.
inline int PoisonPooledBlocks() {
  int filled = 0;
  for (std::int64_t count = 64; count <= (std::int64_t{1} << 20);
       count *= 2) {
    std::vector<Tensor> held;
    for (;;) {
      const std::uint64_t fresh = ArenaStatsSnapshot().fresh_allocs;
      held.push_back(Tensor::Uninitialized(1, static_cast<int>(count)));
      held.back().Fill(std::numeric_limits<float>::quiet_NaN());
      ++filled;
      if (ArenaStatsSnapshot().fresh_allocs != fresh) break;
    }
  }
  return filled;
}

}  // namespace eagle::nn::arena_test
