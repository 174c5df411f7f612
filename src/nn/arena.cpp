#include "nn/arena.h"

#include <algorithm>
#include <cstddef>
#include <new>
#include <vector>

namespace eagle::nn {
namespace {

constexpr std::size_t kAlign = 64;
constexpr int kMinBucketLog2 = 6;   // 64 floats (256 B) smallest class
constexpr int kMaxBucketLog2 = 24;  // 16M floats (64 MB) largest class
constexpr int kNumBuckets = kMaxBucketLog2 - kMinBucketLog2 + 1;

// Smallest size class holding `count` floats, or -1 when too large to pool.
int BucketFor(std::int64_t count) {
  std::int64_t capacity = std::int64_t{1} << kMinBucketLog2;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (count <= capacity) return b;
    capacity <<= 1;
  }
  return -1;
}

std::int64_t BucketCapacity(int bucket) {
  return std::int64_t{1} << (kMinBucketLog2 + bucket);
}

float* RawAlloc(std::int64_t count) {
  return static_cast<float*>(::operator new(
      static_cast<std::size_t>(count) * sizeof(float),
      std::align_val_t{kAlign}));
}

void RawFree(float* ptr) { ::operator delete(ptr, std::align_val_t{kAlign}); }

// Tracks whether the calling thread's arena exists yet / still. Tensors
// destroyed during thread teardown (after the arena's own destructor ran)
// must not resurrect it, so releases in that window free directly.
enum : int { kUnborn = 0, kAlive = 1, kDead = 2 };
thread_local int tl_arena_state = kUnborn;

// One size class. `live` is blocks acquired on this thread minus blocks
// released on it, floored at zero (blocks born on other threads were never
// counted). The pool keeps free.size() + live <= high_water, so a class
// never holds more blocks than this thread has needed at once.
struct SizeClass {
  std::vector<float*> free;
  std::int64_t live = 0;
  std::int64_t high_water = 0;
};

struct ThreadArena {
  ThreadArena() { tl_arena_state = kAlive; }
  ~ThreadArena() {
    Trim();
    tl_arena_state = kDead;
  }

  void Trim() {
    for (SizeClass& cls : classes) {
      for (float* ptr : cls.free) RawFree(ptr);
      cls.free.clear();
      cls.high_water = cls.live;
    }
    stats.pooled_bytes = 0;
  }

  SizeClass classes[kNumBuckets];
  ArenaStats stats;
};

ThreadArena& Arena() {
  thread_local ThreadArena arena;
  return arena;
}

}  // namespace

ArenaStats ArenaStatsSnapshot() {
  if (tl_arena_state == kDead) return {};
  return Arena().stats;
}

void ArenaTrim() {
  if (tl_arena_state == kDead) return;
  Arena().Trim();
}

namespace detail {

float* ArenaAcquire(std::int64_t count) {
  if (count <= 0) return nullptr;
  const int bucket = BucketFor(count);
  if (bucket < 0) return RawAlloc(count);
  // Even with the arena gone (thread teardown) the block must be
  // full-bucket-sized: a surviving Tensor may release it into another
  // thread's pool, which assumes class-sized blocks.
  if (tl_arena_state == kDead) return RawAlloc(BucketCapacity(bucket));
  ThreadArena& arena = Arena();
  ArenaStats& stats = arena.stats;
  SizeClass& cls = arena.classes[bucket];
  ++stats.acquires;
  cls.high_water = std::max(cls.high_water, ++cls.live);
  if (!cls.free.empty()) {
    float* ptr = cls.free.back();
    cls.free.pop_back();
    ++stats.pool_hits;
    stats.pooled_bytes -=
        static_cast<std::uint64_t>(BucketCapacity(bucket)) * sizeof(float);
    return ptr;
  }
  ++stats.fresh_allocs;
  // Pooled blocks are always full-bucket-sized so any same-class release,
  // from any thread, can recycle them interchangeably.
  return RawAlloc(BucketCapacity(bucket));
}

void ArenaRelease(float* ptr, std::int64_t count) {
  if (ptr == nullptr) return;
  const int bucket = BucketFor(count);
  if (bucket < 0 || tl_arena_state == kDead) {
    RawFree(ptr);
    return;
  }
  ThreadArena& arena = Arena();
  SizeClass& cls = arena.classes[bucket];
  ++arena.stats.releases;
  if (cls.live > 0) --cls.live;
  // Within this thread's own peak for the class: a tape rebuilt with the
  // same shapes always fits, and a thread that only releases blocks born
  // elsewhere (high_water 0) keeps none.
  if (static_cast<std::int64_t>(cls.free.size()) + cls.live >=
      cls.high_water) {
    RawFree(ptr);
    return;
  }
  cls.free.push_back(ptr);
  arena.stats.pooled_bytes +=
      static_cast<std::uint64_t>(BucketCapacity(bucket)) * sizeof(float);
}

}  // namespace detail
}  // namespace eagle::nn
