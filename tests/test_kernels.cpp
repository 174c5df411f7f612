// Bit-identity proofs for the blocked/SIMD GEMM kernels, the tensor
// arena, the vector tanh and exp and Adam's vector step: the optimized
// kernels must match the scalar naive reference (nn/naive_ref.h)
// bit-for-bit on every shape, NaN/Inf must propagate through zero
// operands, rebuilding a tape on recycled arena buffers must reproduce
// gradients exactly without allocating, and each vector form must equal
// its scalar form in both float modes.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include "nn/adam.h"
#include "nn/arena.h"
#include "nn/expf.h"
#include "nn/float_mode.h"
#include "nn/naive_ref.h"
#include "nn/tanh.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "tests/lstm_chain_net.h"

// Counts this thread's global operator new calls, so a test can see heap
// allocations outside the tensor arena (whose aligned blocks go through
// the align_val_t overloads, counted by ArenaStats instead).
namespace {
thread_local std::size_t tl_heap_allocs = 0;

// Out of line, so GCC does not see an inlined operator delete hand the
// result of an operator new call to free (-Wmismatched-new-delete).
[[gnu::noinline]] void FreeBlock(void* p) { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  ++tl_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_heap_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { FreeBlock(p); }
void operator delete(void* p, std::size_t) noexcept { FreeBlock(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { FreeBlock(p); }

namespace eagle::nn {
namespace {

// Deterministic fill with sign, magnitude, and exponent spread so any
// reordered or re-rounded accumulation shows up as a bit difference.
Tensor TestMatrix(int rows, int cols, std::uint32_t seed) {
  Tensor t(rows, cols);
  std::uint32_t state = seed * 2654435761u + 12345u;
  float* d = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    state = state * 1664525u + 1013904223u;
    const float mantissa =
        static_cast<float>(static_cast<std::int32_t>(state >> 8) -
                           (1 << 23)) /
        static_cast<float>(1 << 23);
    const int exponent = static_cast<int>(state % 7u) - 3;
    d[i] = std::ldexp(mantissa, exponent);
  }
  return t;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

using KernelFn = void (*)(const Tensor&, const Tensor&, Tensor&);

// a·bᵀ as the tape computes it: a zero-started fold over bᵀ. The
// reference, naive::GemmTransBAccum, takes b.
void TapeTransB(const Tensor& a, const Tensor& b, Tensor& out) {
  GemmAccumFromZero(a, Transposed(b), out);
}

// aᵀ·b through the row-pointer entry, one pointer per row of a and b.
void TransAByRows(const Tensor& a, const Tensor& b, Tensor& out) {
  std::vector<const float*> a_rows, b_rows;
  for (int r = 0; r < a.rows(); ++r) {
    a_rows.push_back(a.row(r));
    b_rows.push_back(b.row(r));
  }
  GemmTransAAccumRows(a_rows, b_rows, out);
}

// Replaces every fifth entry with a subnormal of the same sign, the
// operand mix a softmax that underflowed feeds into the backward GEMMs.
Tensor WithSubnormals(Tensor t) {
  float* d = t.data();
  for (std::int64_t i = 0; i < t.size(); i += 5) {
    d[i] = std::ldexp(d[i] == 0.0f ? 1.0f : d[i], -130);
  }
  return t;
}

// Runs optimized vs reference on a(m×k)·b(k×n)-shaped inputs (the caller
// maps m/k/n onto the kernel's own convention) with a non-zero starting
// out so the accumulate path is exercised too.
void ExpectKernelMatches(KernelFn optimized, KernelFn reference, int ar,
                         int ac, int br, int bc, int outr, int outc,
                         std::uint32_t seed, bool subnormals = false) {
  Tensor a = TestMatrix(ar, ac, seed);
  Tensor b = TestMatrix(br, bc, seed + 1);
  if (subnormals) {
    a = WithSubnormals(std::move(a));
    b = WithSubnormals(std::move(b));
  }
  Tensor out_opt = TestMatrix(outr, outc, seed + 2);
  Tensor out_ref = out_opt;
  optimized(a, b, out_opt);
  reference(a, b, out_ref);
  EXPECT_TRUE(BitIdentical(out_opt, out_ref))
      << "kernel mismatch at " << ar << "x" << ac << " * " << br << "x" << bc;
}

// Covers full tiles, every row/column remainder class, vector shapes
// (1×N, N×1), and empty extents.
const int kDims[] = {0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 24, 31, 33, 64};

TEST(Kernels, GemmAccumBitIdenticalAcrossShapeGrid) {
  std::uint32_t seed = 1;
  for (int m : kDims)
    for (int k : kDims)
      for (int n : kDims)
        ExpectKernelMatches(GemmAccum, naive::GemmAccum, m, k, k, n, m, n,
                            ++seed);
}

TEST(Kernels, GemmTransAAccumRowsBitIdenticalAcrossShapeGrid) {
  std::uint32_t seed = 40001;
  for (int m : kDims)
    for (int k : kDims)
      for (int n : kDims)
        ExpectKernelMatches(TransAByRows, naive::GemmTransAAccum, m, k, m, n,
                            k, n, ++seed);
}

TEST(Kernels, GemmAccumFromZeroBitIdenticalAcrossShapeGrid) {
  std::uint32_t seed = 20001;
  for (int m : kDims)
    for (int k : kDims)
      for (int n : kDims)
        ExpectKernelMatches(TapeTransB, naive::GemmTransBAccum, m, n, k, n,
                            m, k, ++seed);
}

// Every row and column class of the register tiles, in both float modes:
// 8-row tiles with remainders 1–7 (4-row ones with 1–3 on 8-lane builds),
// one masked vector (1–15 columns), one full vector, two vectors with the
// second masked (17–31), whole 32-column panels with and without a tail,
// and reductions of 0, 1, 2 and 5 steps (none, the unroll's odd step
// alone, one unrolled pair, two pairs and the odd step).
const int kTileRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17};
const int kTileCols[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13,
                         14, 15, 16, 17, 20, 24, 31, 32, 33, 48, 129, 257};
const int kTileDepths[] = {0, 1, 2, 5};

TEST(Kernels, TileRemainderClassesBitIdenticalInBothFloatModes) {
  for (const bool flush : {false, true}) {
    std::optional<FlushDenormalsScope> scope;
    if (flush) scope.emplace();
    std::uint32_t seed = 80001;
    for (int m : kTileRows) {
      for (int n : kTileCols) {
        for (int k : kTileDepths) {
          ExpectKernelMatches(GemmAccum, naive::GemmAccum, m, k, k, n, m, n,
                              seed += 3);
          ExpectKernelMatches(TransAByRows, naive::GemmTransAAccum, k, m, k,
                              n, m, n, seed += 3);
          ExpectKernelMatches(TapeTransB, naive::GemmTransBAccum, m, k, n, k,
                              m, n, seed += 3);
        }
      }
    }
  }
}

// A tail vector never reads B past a row's last column: with B's row
// ending where an inaccessible page begins, every width of one or two
// vectors, masked or not, runs (an unmasked tail load would fault) and
// matches the reference. The three reduction rows all point at that row,
// so the two-step unroll reads it too.
TEST(Kernels, TailLoadsStopAtTheRowsLastColumn) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* mem = mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  char* guard = static_cast<char*>(mem) + page;
  ASSERT_EQ(mprotect(guard, page, PROT_NONE), 0);
  std::uint32_t seed = 87001;
  for (int n = 1; n <= 33; ++n) {
    const Tensor row = TestMatrix(1, n, seed++);
    float* guarded = reinterpret_cast<float*>(guard) - n;
    std::copy(row.data(), row.data() + n, guarded);
    const Tensor a = TestMatrix(3, 9, seed++);
    Tensor b(3, n);
    for (int t = 0; t < 3; ++t) std::copy(guarded, guarded + n, b.row(t));
    Tensor got = TestMatrix(9, n, seed++);
    Tensor want = got;
    const float* a_rows[] = {a.row(0), a.row(1), a.row(2)};
    const float* b_rows[] = {guarded, guarded, guarded};
    GemmTransAAccumRows(a_rows, b_rows, got);
    naive::GemmTransAAccum(a, b, want);
    EXPECT_TRUE(BitIdentical(got, want)) << "width " << n;
  }
  munmap(mem, 2 * page);
}

// Outputs of 1–3 rows run eight-vector tiles (64 or 128 columns), then
// the panel and masked tails: widths past one 8-lane tile, one and a half
// tiles, and two tiles plus a sub-vector remainder, and the same around
// the 16-lane tile, for every kernel.
TEST(Kernels, GemvWidthsBitIdentical) {
  std::uint32_t seed = 50001;
  for (int rows = 1; rows <= 3; ++rows) {
    for (int width : {65, 96, 130, 129, 192, 260}) {
      for (int red : {1, 2, 7, 33, 64}) {
        ExpectKernelMatches(GemmAccum, naive::GemmAccum, rows, red, red,
                            width, rows, width, ++seed);
        ExpectKernelMatches(TransAByRows, naive::GemmTransAAccum, red, rows,
                            red, width, rows, width, ++seed);
        ExpectKernelMatches(TapeTransB, naive::GemmTransBAccum, rows, red,
                            width, red, rows, width, ++seed);
      }
    }
  }
}

// One decoder step of the seq2seq placer (264 = cell input + hidden,
// 256 = four gates): the forward gates, dX against W, and dW folded over
// the 240 steps a scoring tape queues on W, each step's rows in their own
// tensors, against one naive call per step.
TEST(Kernels, DecoderStepShapesBitIdentical) {
  constexpr int kIn = 264;
  constexpr int kGates = 256;
  constexpr int kQueued = 240;
  ExpectKernelMatches(GemmAccum, naive::GemmAccum, 1, kIn, kIn, kGates, 1,
                      kGates, 60001);
  ExpectKernelMatches(TapeTransB, naive::GemmTransBAccum, 1, kGates, kIn,
                      kGates, 1, kIn, 60002);

  std::vector<Tensor> xs, gs;
  std::vector<const float*> x_rows, g_rows;
  for (int t = 0; t < kQueued; ++t) {
    xs.push_back(TestMatrix(1, kIn, 61000 + 2 * t));
    gs.push_back(TestMatrix(1, kGates, 61001 + 2 * t));
  }
  for (int t = 0; t < kQueued; ++t) {
    x_rows.push_back(xs[static_cast<std::size_t>(t)].row(0));
    g_rows.push_back(gs[static_cast<std::size_t>(t)].row(0));
  }
  Tensor got = TestMatrix(kIn, kGates, 60003);
  Tensor want = got;
  GemmTransAAccumRows(x_rows, g_rows, got);
  for (int t = 0; t < kQueued; ++t) {
    naive::GemmTransAAccum(xs[static_cast<std::size_t>(t)],
                           gs[static_cast<std::size_t>(t)], want);
  }
  EXPECT_TRUE(BitIdentical(got, want));
}

// The shapes of one stacked (B = 10) scoring pass on GNMT and of the
// grouper: the attention score (240×32 · 32×1), a decoder step's gates
// (10×328 · 328×256) and dX, the device logits (10×64 · 64×5), the
// grouper's first layer (5042×43 · 43×24), and the dW folds of the
// decoder and encoder weights over 240 rows, of the attention vector
// over 5,760 and of the grouper's layer over 5,042.
TEST(Kernels, StackedScoringShapesBitIdentical) {
  struct Shape {
    int m, k, n;
  };
  std::uint32_t seed = 70001;
  for (const Shape& s : {Shape{240, 32, 1}, Shape{10, 328, 256},
                         Shape{10, 64, 5}, Shape{5042, 43, 24}}) {
    ExpectKernelMatches(GemmAccum, naive::GemmAccum, s.m, s.k, s.k, s.n, s.m,
                        s.n, seed += 3);
  }
  ExpectKernelMatches(TapeTransB, naive::GemmTransBAccum, 10, 256, 328, 256,
                      10, 328, seed += 3);
  // dW: rows × k against rows × n into k × n.
  for (const Shape& s : {Shape{240, 328, 256}, Shape{240, 144, 256},
                         Shape{5760, 32, 1}, Shape{5042, 43, 24}}) {
    ExpectKernelMatches(TransAByRows, naive::GemmTransAAccum, s.m, s.k, s.m,
                        s.n, s.k, s.n, seed += 3);
  }
}

// The grouper head's shapes (5042 ops × 24 hidden × 24 groups), with
// subnormal operands, in the default float mode and flushed: blocked and
// naive kernels must agree bit-for-bit under the same mode, whether the
// subnormals flow through or are flushed to zero.
TEST(Kernels, GrouperShapeWithSubnormalsBitIdenticalInBothFloatModes) {
  constexpr int kOps = 5042;
  constexpr int kHidden = 24;
  constexpr int kGroups = 24;
  for (const bool flush : {false, true}) {
    std::optional<FlushDenormalsScope> scope;
    if (flush) scope.emplace();
    // logits = h·W, dh = dlogits·Wᵀ, dW = hᵀ·dlogits.
    ExpectKernelMatches(GemmAccum, naive::GemmAccum, kOps, kHidden, kHidden,
                        kGroups, kOps, kGroups, 30001, /*subnormals=*/true);
    ExpectKernelMatches(TapeTransB, naive::GemmTransBAccum, kOps, kGroups,
                        kHidden, kGroups, kOps, kHidden, 30011,
                        /*subnormals=*/true);
    ExpectKernelMatches(TransAByRows, naive::GemmTransAAccum, kOps, kHidden,
                        kOps, kGroups, kHidden, kGroups, 30021,
                        /*subnormals=*/true);
  }
  EXPECT_FALSE(DenormalsFlushed());
}

// Regression for the old `if (av == 0.0f) continue;` zero-skip: a zero in
// one operand must not suppress a NaN/Inf in the other (0 · NaN = NaN,
// 0 · ∞ = NaN), in the optimized kernels and the reference alike.
TEST(Kernels, ZeroTimesNanPropagates) {
  const float kBads[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity()};
  for (const float bad : kBads) {
    {
      Tensor a = Tensor::FromData(1, 2, {0.0f, 1.0f});
      Tensor b = Tensor::FromData(2, 1, {bad, 2.0f});
      Tensor out(1, 1);
      GemmAccum(a, b, out);
      EXPECT_TRUE(std::isnan(out.at(0, 0)));
      Tensor ref(1, 1);
      naive::GemmAccum(a, b, ref);
      EXPECT_TRUE(std::isnan(ref.at(0, 0)));
    }
    {
      // out(1,1) = aᵀ(1×2)·b(2×1) with the zero row of a against the bad
      // value of b.
      Tensor a = Tensor::FromData(2, 1, {0.0f, 1.0f});
      Tensor b = Tensor::FromData(2, 1, {bad, 2.0f});
      Tensor out(1, 1);
      TransAByRows(a, b, out);
      EXPECT_TRUE(std::isnan(out.at(0, 0)));
      Tensor ref(1, 1);
      naive::GemmTransAAccum(a, b, ref);
      EXPECT_TRUE(std::isnan(ref.at(0, 0)));
    }
    {
      Tensor a = Tensor::FromData(1, 2, {0.0f, 1.0f});
      Tensor b = Tensor::FromData(1, 2, {bad, 2.0f});
      Tensor out(1, 1);
      GemmAccumFromZero(a, Transposed(b), out);
      EXPECT_TRUE(std::isnan(out.at(0, 0)));
      Tensor ref(1, 1);
      naive::GemmTransBAccum(a, b, ref);
      EXPECT_TRUE(std::isnan(ref.at(0, 0)));
    }
    // The zero-started dX fold at a 1-row output 72 wide (one 64-column
    // tile and an 8-column tail), with every output starting finite: the
    // bad value enters through the zero entry of a, in the first step.
    {
      constexpr int kWidth = 72;
      Tensor a = Tensor::FromData(1, 3, {0.0f, 1.0f, -1.0f});
      Tensor b(kWidth, 3, 2.0f);
      for (int j = 0; j < kWidth; ++j) b.at(j, 0) = bad;
      Tensor out(1, kWidth, 1.0f);
      GemmAccumFromZero(a, Transposed(b), out);
      Tensor ref(1, kWidth, 1.0f);
      naive::GemmTransBAccum(a, b, ref);
      for (int j = 0; j < kWidth; ++j) {
        EXPECT_TRUE(std::isnan(out.at(0, j))) << "column " << j;
        EXPECT_TRUE(std::isnan(ref.at(0, j))) << "column " << j;
      }
    }
  }
}

std::vector<unsigned char> GradBytes(const Tensor& t) {
  std::vector<unsigned char> bytes(
      static_cast<std::size_t>(t.size()) * sizeof(float));
  std::memcpy(bytes.data(), t.data(), bytes.size());
  return bytes;
}

// One forward/backward pass of a small two-layer net on the given tape.
void RunTapePass(Tape& tape, Parameter& w1, Parameter& w2,
                 const Tensor& input) {
  Var x = tape.Input(input);
  Var h = tape.Tanh(tape.MatMul(x, tape.Param(&w1)));
  Var y = tape.MatMul(h, tape.Param(&w2));
  Var loss = tape.Mean(tape.Mul(y, y));
  tape.Backward(loss);
}

TEST(Arena, TapeRebuildOnRecycledBuffersIsBitIdentical) {
  Parameter w1{"w1", TestMatrix(8, 16, 77), Tensor()};
  Parameter w2{"w2", TestMatrix(16, 4, 78), Tensor()};
  const Tensor input = TestMatrix(5, 8, 79);

  Tape tape;
  RunTapePass(tape, w1, w2, input);
  const auto g1_w1 = GradBytes(w1.grad);
  const auto g1_w2 = GradBytes(w2.grad);
  tape.Reset();

  // The second pass performs the identical allocation sequence, so every
  // tensor must come off the freelists the first pass refilled.
  const ArenaStats before = ArenaStatsSnapshot();
  w1.grad.Fill(0.0f);
  w2.grad.Fill(0.0f);
  RunTapePass(tape, w1, w2, input);
  const auto g2_w1 = GradBytes(w1.grad);
  const auto g2_w2 = GradBytes(w2.grad);
  tape.Reset();
  const ArenaStats after = ArenaStatsSnapshot();

  EXPECT_EQ(g1_w1, g2_w1);
  EXPECT_EQ(g1_w2, g2_w2);
  EXPECT_EQ(after.fresh_allocs, before.fresh_allocs)
      << "tape rebuild should not allocate";
  EXPECT_GT(after.pool_hits, before.pool_hits);

  // The LSTM chain adds transposed right operands, queued dB products and
  // their row pointers. A rebuild on the reset tape must find all of them
  // in storage the first pass left behind: no fresh arena block and no
  // heap allocation, nor any in a one-op tape's Backward (its span
  // resolves its histogram once).
  chain::ChainNet net = chain::MakeChainNet(31);
  Tape chain_tape;
  chain::RecordingTape recorder(chain_tape);
  const auto chain_pass = [&] {
    chain_tape.Backward(chain::BuildChain(recorder, net));
    chain_tape.Reset();
    recorder.Clear();
  };
  chain_pass();
  const auto c1_w = GradBytes(net.w.grad);
  const auto c1_w_enc = GradBytes(net.w_enc.grad);
  for (Parameter* p : {&net.w, &net.bias, &net.w_enc}) p->grad.Fill(0.0f);
  const ArenaStats chain_before = ArenaStatsSnapshot();
  const std::size_t chain_heap_before = tl_heap_allocs;
  chain_pass();
  const std::size_t chain_heap = tl_heap_allocs - chain_heap_before;
  const ArenaStats chain_after = ArenaStatsSnapshot();
  EXPECT_EQ(c1_w, GradBytes(net.w.grad));
  EXPECT_EQ(c1_w_enc, GradBytes(net.w_enc.grad));
  EXPECT_EQ(chain_after.fresh_allocs, chain_before.fresh_allocs)
      << "chain rebuild should not allocate";

  Parameter p{"p", TestMatrix(1, 1, 80), Tensor(1, 1)};
  Tape one_op;
  const auto one_op_pass = [&] {
    one_op.Backward(one_op.Sum(one_op.Param(&p)));
    one_op.Reset();
  };
  one_op_pass();
  const std::size_t one_op_heap_before = tl_heap_allocs;
  one_op_pass();
  EXPECT_EQ(tl_heap_allocs - one_op_heap_before, 0u);
  EXPECT_EQ(chain_heap, 0u);
}

// 17 chained 1024×1024 Tanh nodes: a 72 MB tape, larger than the old
// fixed 64 MB pool cap. The pool is bounded by the thread's own peak, so
// the whole tape is recycled and the rebuild allocates nothing.
TEST(Arena, TapeLargerThan64MbRebuildsWithoutAllocating) {
  const auto build = [] {
    Tape tape;
    Var x = tape.Input(Tensor(1024, 1024, 0.5f));
    for (int i = 0; i < 17; ++i) x = tape.Tanh(x);
    return tape.value(x).at(0, 0);
  };
  const float first = build();
  const ArenaStats before = ArenaStatsSnapshot();
  const float second = build();
  const ArenaStats after = ArenaStatsSnapshot();
  EXPECT_EQ(first, second);
  EXPECT_EQ(after.fresh_allocs - before.fresh_allocs, 0u);
  EXPECT_GE(after.pool_hits - before.pool_hits, 18u);
  EXPECT_GT(after.pooled_bytes, std::uint64_t{64} << 20);
}

TEST(Arena, ForeignReleasesPoolNothing) {
  std::vector<Tensor> tensors;
  for (int i = 0; i < 8; ++i) tensors.emplace_back(64, 64, 1.0f);
  ArenaStats stats;
  std::thread releaser([&tensors, &stats] {
    tensors.clear();
    stats = ArenaStatsSnapshot();
  });
  releaser.join();
  EXPECT_EQ(stats.releases, 8u);
  EXPECT_EQ(stats.pooled_bytes, 0u);
}

TEST(Arena, TrimReleasesCachedBytes) {
  {
    Tensor t(64, 64);
    t.Fill(1.0f);
  }
  EXPECT_GT(ArenaStatsSnapshot().pooled_bytes, 0u);
  ArenaTrim();
  EXPECT_EQ(ArenaStatsSnapshot().pooled_bytes, 0u);
}

TEST(Arena, CrossSizeReuseKeepsValuesIntact) {
  // Same bucket, different logical sizes: a 65-float tensor reuses a
  // 100-float tensor's 128-float block; contents must be fully rewritten.
  ArenaTrim();
  { Tensor big(10, 10, 3.0f); }
  Tensor t(13, 5, 0.0f);
  for (int r = 0; r < t.rows(); ++r)
    for (int c = 0; c < t.cols(); ++c) EXPECT_EQ(t.at(r, c), 0.0f);
}

// ---- tanh: the vector form against the scalar fdlibm port ----

std::uint32_t FloatBits(float x) { return std::bit_cast<std::uint32_t>(x); }

// Runs `inputs` through a vector form in blocks of eight (the vector
// lanes; a tail would take the scalar port) and counts lanes whose bytes
// differ from the scalar form's.
int VectorMismatches(const std::vector<float>& inputs, const char* name,
                     void (*vector_form)(std::span<float>),
                     float (*scalar_form)(float)) {
  std::vector<float> lanes(inputs.begin(), inputs.end());
  lanes.resize((lanes.size() + 7) / 8 * 8, 0.5f);
  std::vector<float> vectorized = lanes;
  vector_form(vectorized);
  int mismatches = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (FloatBits(vectorized[i]) != FloatBits(scalar_form(lanes[i]))) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << name << "(0x" << std::hex << FloatBits(lanes[i])
                      << ") vector 0x" << FloatBits(vectorized[i])
                      << " scalar 0x" << FloatBits(scalar_form(lanes[i]));
      }
    }
  }
  return mismatches;
}

int TanhMismatches(const std::vector<float>& inputs) {
  return VectorMismatches(inputs, "tanh", TanhInPlace, TanhF);
}

// Both signs of `x`, and one ulp either side of each.
void AddAround(std::vector<float>& inputs, float x) {
  for (const float v : {x, -x}) {
    inputs.push_back(v);
    inputs.push_back(std::nextafter(v, 0.0f));
    inputs.push_back(std::nextafter(v, 2.0f * v));
  }
}

// Every bit pattern at a stride prime to 2^32 (~1M inputs), so every
// exponent and both signs are covered.
std::vector<float> StridedSweep() {
  std::vector<float> inputs;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
       bits += 4099) {
    inputs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  return inputs;
}

// ±0, the subnormal and normal extremes, ±Inf (each with its neighbours)
// and NaNs of both signs with assorted payloads.
std::vector<float> Specials() {
  std::vector<float> inputs;
  AddAround(inputs, 0.0f);
  for (const float v : {std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::min(),
                        std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::max()}) {
    AddAround(inputs, v);
  }
  for (const std::uint32_t nan : {0x7fc00000u, 0xffc00000u, 0x7f800001u,
                                  0xff812345u}) {
    inputs.push_back(std::bit_cast<float>(nan));
  }
  return inputs;
}

TEST(Tanh, VectorFormEqualsScalarPortOnAStridedSweep) {
  const std::vector<float> inputs = StridedSweep();
  for (const bool flush : {false, true}) {
    std::optional<FlushDenormalsScope> scope;
    if (flush) scope.emplace();
    EXPECT_EQ(TanhMismatches(inputs), 0) << (flush ? "FTZ|DAZ" : "IEEE");
  }
}

TEST(Tanh, VectorFormEqualsScalarPortAtSpecialsAndBranchEdges) {
  std::vector<float> inputs = Specials();
  // tanh's |x| thresholds, then expm1's |2x| ones: 0.5 ln2, 1.5 ln2,
  // 27 ln2, and the k = ±1, 22/23 and 56/57 rounding boundaries.
  const float ln2 = 0.693147180559945f;
  for (const float x : {std::ldexp(1.0f, -55), 1.0f, 22.0f}) {
    AddAround(inputs, x);
  }
  for (const float twice : {0.5f * ln2, 1.5f * ln2, 27.0f * ln2, 2.5f * ln2,
                            22.5f * ln2, 23.5f * ln2, 56.5f * ln2,
                            57.5f * ln2}) {
    AddAround(inputs, 0.5f * twice);
  }
  for (const bool flush : {false, true}) {
    std::optional<FlushDenormalsScope> scope;
    if (flush) scope.emplace();
    EXPECT_EQ(TanhMismatches(inputs), 0) << (flush ? "FTZ|DAZ" : "IEEE");
  }
}

// ---- exp: the vector forms against the scalar glibc port ----

int ExpMismatches(const std::vector<float>& inputs) {
  return VectorMismatches(inputs, "exp", ExpInPlace, ExpF) +
         VectorMismatches(inputs, "sigmoid", SigmoidInPlace, SigmoidF);
}

// The inputs where the port's branches and rounding turn: |x| = 88 (the
// special-case branch), the overflow and underflow thresholds, and the
// two inputs where the FMA build's r = fma(InvLn2N, xd, -kd) and the
// plain build's r = z - kd round apart.
std::vector<float> ExpEdges() {
  std::vector<float> inputs = Specials();
  for (const float x : {88.0f, 0x1.62e42ep6f, 0x1.9fe368p6f, 0x1.04845ep+5f,
                        0x1.f8cbb2p+5f, 1.0f}) {
    AddAround(inputs, x);
  }
  return inputs;
}

TEST(ExpF, VectorFormsEqualScalarPortOnAStridedSweep) {
  const std::vector<float> inputs = StridedSweep();
  for (const bool flush : {false, true}) {
    std::optional<FlushDenormalsScope> scope;
    if (flush) scope.emplace();
    EXPECT_EQ(ExpMismatches(inputs), 0) << (flush ? "FTZ|DAZ" : "IEEE");
  }
}

TEST(ExpF, VectorFormsEqualScalarPortAtSpecialsAndBranchEdges) {
  const std::vector<float> inputs = ExpEdges();
  for (const bool flush : {false, true}) {
    std::optional<FlushDenormalsScope> scope;
    if (flush) scope.emplace();
    EXPECT_EQ(ExpMismatches(inputs), 0) << (flush ? "FTZ|DAZ" : "IEEE");
  }
}

// glibc 2.36's expf as its FMA build returns it, including the two
// inputs its plain build rounds one ulp apart, and the special cases.
TEST(ExpF, ReturnsTheFmaBuildOfGlibcExpf) {
  const std::pair<float, std::uint32_t> known[] = {
      {0x1.04845ep+5f, 0x56fc9f1cu},   {-0x1.f8cbb2p+5f, 0x11fa2993u},
      {1.0f, 0x402df854u},             {0x1.62e42ep6f, 0x7f7fff84u},
      {-0x1.9fe368p6f, 0x00000001u},   {88.0f, 0x7ef882b7u},
      {-88.0f, 0x0041edc4u},           {0.0f, 0x3f800000u},
      {-0.0f, 0x3f800000u},
  };
  for (const auto& [x, want] : known) {
    EXPECT_EQ(FloatBits(ExpF(x)), want) << std::hexfloat << x;
  }
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(FloatBits(ExpF(-inf)), FloatBits(0.0f));
  EXPECT_EQ(ExpF(inf), inf);
  EXPECT_EQ(ExpF(std::nextafter(0x1.62e42ep6f, inf)), inf);
  EXPECT_EQ(FloatBits(ExpF(std::nextafter(-0x1.9fe368p6f, -inf))),
            FloatBits(0.0f));
  // NaN returns x + x: the input quieted, sign and payload kept.
  EXPECT_EQ(FloatBits(ExpF(std::bit_cast<float>(0xff812345u))), 0xffc12345u);
  {
    // Subnormal results flush with FTZ; subnormal inputs read as zero
    // with DAZ.
    FlushDenormalsScope flush;
    EXPECT_EQ(FloatBits(ExpF(-88.0f)), FloatBits(0.0f));
    EXPECT_EQ(ExpF(std::numeric_limits<float>::denorm_min()), 1.0f);
  }
}

// ---- Adam: the double-lane step against the scalar loop ----

// Adam::Step's update before it ran on vector lanes, element by element.
void ScalarAdamUpdate(const AdamOptions& o, std::int64_t t, Tensor& value,
                      const Tensor& grad, Tensor& m, Tensor& v) {
  FlushDenormalsScope flush;
  const double bias1 = 1.0 - std::pow(o.beta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(o.beta2, static_cast<double>(t));
  for (std::int64_t i = 0; i < value.size(); ++i) {
    float* md = m.data();
    float* vd = v.data();
    const float* g = grad.data();
    md[i] = static_cast<float>(o.beta1 * md[i] + (1.0 - o.beta1) * g[i]);
    vd[i] = static_cast<float>(o.beta2 * vd[i] +
                               (1.0 - o.beta2) * g[i] * g[i]);
    const double m_hat = md[i] / bias1;
    const double v_hat = vd[i] / bias2;
    value.data()[i] -=
        static_cast<float>(o.lr * m_hat / (std::sqrt(v_hat) + o.eps));
  }
}

TEST(Adam, VectorStepEqualsScalarLoopOnOddSizes) {
  AdamOptions options;
  options.clip_norm = 0.0;  // the update alone; clipping is shared
  ParamStore store;
  const std::pair<int, int> shapes[] = {{1, 1}, {1, 3}, {5, 1}, {3, 3},
                                        {7, 5}, {1, 13}, {2, 9}};
  std::uint32_t seed = 90;
  for (const auto& [rows, cols] : shapes) {
    Parameter* p =
        store.Create(std::string("p").append(std::to_string(seed)), rows, cols);
    p->value = TestMatrix(rows, cols, seed++);
  }
  Adam adam(store, options);
  std::vector<Tensor> values, ms, vs;
  for (const auto& p : store.params()) {
    values.push_back(p->value);
    ms.emplace_back(p->value.rows(), p->value.cols());
    vs.emplace_back(p->value.rows(), p->value.cols());
  }
  for (int step = 1; step <= 4; ++step) {
    for (std::size_t k = 0; k < store.params().size(); ++k) {
      Parameter& p = *store.params()[k];
      p.grad = TestMatrix(p.value.rows(), p.value.cols(), seed++);
      // Zeros of both signs, a subnormal and a large gradient.
      p.grad.data()[0] = step == 2 ? -0.0f : p.grad.data()[0];
      if (p.grad.size() > 2) {
        p.grad.data()[1] = std::numeric_limits<float>::denorm_min();
        p.grad.data()[2] = 3.0e4f;
      }
      ScalarAdamUpdate(options, step, values[k], p.grad, ms[k], vs[k]);
    }
    adam.Step();
    for (std::size_t k = 0; k < store.params().size(); ++k) {
      EXPECT_TRUE(BitIdentical(store.params()[k]->value, values[k]))
          << "step " << step << " parameter " << k;
    }
  }
}

}  // namespace
}  // namespace eagle::nn
