// Per-thread freelist arena backing nn::Tensor storage.
//
// A training round records and tears down a tape with thousands of nodes,
// each holding one or two small tensors; with vector-backed storage every
// node was a malloc/free pair on the hot path. The arena keeps released
// buffers in thread-local power-of-two size-class freelists, so a tape
// that is rebuilt with the same shapes (every PPO epoch) allocates
// nothing after the first pass. Tape::Reset destroys nodes in LIFO order,
// which replays buffers back onto the freelists so the next forward pass
// pops them in exactly the order it wants them.
//
// Determinism: the arena hands out storage, never values — every Tensor
// constructor fills or copies its full extent, and Tensor::Uninitialized
// callers write every element before reading one — so pooling cannot
// change a single output bit. Thread safety: freelists are thread_local and a
// buffer released on a different thread than it was acquired on simply
// joins the releasing thread's pool, so there is no shared state at all.
// Lifetime: each thread's pool is trimmed when the thread exits; tensors
// that outlive their birth thread are safe because the underlying blocks
// come from the global aligned operator new.
//
// Bound: per size class, a thread never holds more pooled plus live
// blocks than its own high-water mark of live blocks in that class, so
// the pool is as large as the biggest working set the thread has needed —
// a whole PPO epoch tape, say — and no larger. A release that would break
// the bound frees the block instead. A thread that only releases tensors
// created elsewhere has a high-water mark of zero and pools nothing.
#pragma once

#include <cstdint>

namespace eagle::nn {

// Counters for the calling thread's arena (pooled size classes only;
// oversized buffers go straight to the global allocator uncounted).
struct ArenaStats {
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  std::uint64_t pool_hits = 0;     // acquires served from a freelist
  std::uint64_t fresh_allocs = 0;  // acquires that reached operator new
  std::uint64_t pooled_bytes = 0;  // bytes currently cached in freelists
};

ArenaStats ArenaStatsSnapshot();

// Frees every buffer cached by the calling thread's arena and lowers its
// high-water marks to the blocks still live.
void ArenaTrim();

namespace detail {

// All returned pointers are 64-byte aligned, so a 16-float vector load
// at the start of a row whose length is a multiple of 16 never splits a
// cache line (the GEMM kernels). Contents are uninitialized. `count` is
// in floats and must be the same value at release that was passed at
// acquire.
float* ArenaAcquire(std::int64_t count);
void ArenaRelease(float* ptr, std::int64_t count);

}  // namespace detail
}  // namespace eagle::nn
