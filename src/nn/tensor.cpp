#include "nn/tensor.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <sstream>
#include <utility>

#include "nn/arena.h"
#include "nn/gemm_inner.h"

#if defined(EAGLE_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define EAGLE_GEMM_SIMD 1
#include <immintrin.h>
#endif

namespace eagle::nn {

Tensor::Tensor(int rows, int cols, float fill)
    : Tensor(Uninitialized(rows, cols)) {
  Fill(fill);
}

Tensor Tensor::Uninitialized(int rows, int cols) {
  EAGLE_CHECK_MSG(rows >= 0 && cols >= 0,
                  "bad tensor shape " << rows << "x" << cols);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_ = detail::ArenaAcquire(t.size());
  return t;
}

Tensor Tensor::FromData(int rows, int cols, std::vector<float> data) {
  EAGLE_CHECK_MSG(static_cast<std::int64_t>(data.size()) ==
                      static_cast<std::int64_t>(rows) * cols,
                  "data size " << data.size() << " != " << rows << "x" << cols);
  Tensor t = Uninitialized(rows, cols);
  std::copy(data.begin(), data.end(), t.data_);
  return t;
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  data_ = detail::ArenaAcquire(size());
  std::copy(other.data_, other.data_ + size(), data_);
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (size() != other.size()) {
    detail::ArenaRelease(data_, size());
    data_ = detail::ArenaAcquire(other.size());
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  std::copy(other.data_, other.data_ + size(), data_);
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  detail::ArenaRelease(data_, size());
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = other.data_;
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
  return *this;
}

Tensor::~Tensor() { detail::ArenaRelease(data_, size()); }

void Tensor::Fill(float v) { std::fill(data_, data_ + size(), v); }

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_;
  return os.str();
}

// ---------------------------------------------------------------------------
// Blocked GEMM kernels.
//
// Bit-identity with the naive reference (nn/naive_ref.cpp) holds because
// each output element's value is a fold over one reduction index in
// ascending order, every step a single detail::MulAdd, and keeping that
// fold in a register across the loop instead of in out-memory performs
// the exact same rounding sequence. The blocking below only rearranges
// *which* element's fold advances next, never the order within a fold.
//
// Every entry point runs one tile kernel over out[r, j] and
// Σ_p A(r, p) · B(p, j). The fold either starts from out, as the
// reference's in-place accumulation does (GemmAccum and
// GemmTransAAccumRows), or starts from zero and is added to out once at
// the end, as the reference's dot product `acc = 0; acc = fma(...)...;
// out += acc` does (GemmAccumFromZero). The tape runs the dot-product
// form a·cᵀ as GemmAccumFromZero(a, cᵀ): cᵀ's rows are contiguous, so it
// vectorizes across output columns like the others instead of
// reassociating a dot product.
//
// One register-tile template runs every shape, over a vector type chosen
// at compile time: with EAGLE_SIMD and AVX2+FMA, 16-lane __m512 tiles
// where __AVX512F__ is defined and 8-lane __m256 ones otherwise; off x86
// and under -DEAGLE_SIMD=OFF, an 8-lane GNU vector. A column remainder
// is the same tile with its last vector masked: masked lanes fold zeros,
// are never read from out or B and never stored, so an output may end at
// its tensor's last element and no NaN/Inf from padding enters a lane.
// ---------------------------------------------------------------------------

namespace {

using detail::MulAdd;

// Where a fold starts: from out's value, or from zero with out added once.
enum class Fold { kFromOut, kFromZero };

// Row-major operands: step p of the reduction reads A(r, p) at
// ARow(p)[r * row_stride] and B(p, ·) at BRow(p).
struct Strided {
  const float* a;
  std::ptrdiff_t row_stride;  // a's leading dimension
  const float* b;
  std::ptrdiff_t ldb;
  const float* ARow(int p) const { return a + p; }
  const float* BRow(int p) const { return b + p * ldb; }
  // The operands of the tile whose top-left output element is (i, j).
  Strided At(int i, int j) const {
    return {a + i * row_stride, row_stride, b + j, ldb};
  }
};

// A = aᵀ with the reduction rows of a and b gathered by pointer.
struct Gathered {
  const float* const* a_rows;
  const float* const* b_rows;
  std::ptrdiff_t i = 0;
  std::ptrdiff_t j = 0;
  static constexpr std::ptrdiff_t row_stride = 1;
  const float* ARow(int p) const { return a_rows[p] + i; }
  const float* BRow(int p) const { return b_rows[p] + j; }
  Gathered At(int di, int dj) const {
    return {a_rows, b_rows, i + di, j + dj};
  }
};

// The vector type the tiles run on, the tile height, and the vectors per
// row of the tile for outputs of 1–3 rows.
#if EAGLE_GEMM_SIMD && defined(__AVX512F__)
// 16 lanes; a tail mask is one bit per lane.
struct Vec {
  static constexpr int kLanes = 16;
  using Reg = __m512;
  using Mask = __mmask16;
  static Mask FirstLanes(int w) {
    return static_cast<Mask>((1u << static_cast<unsigned>(w)) - 1u);
  }
  static Reg Zero() { return _mm512_setzero_ps(); }
  static Reg Splat(float x) { return _mm512_set1_ps(x); }
  static Reg Load(const float* p) { return _mm512_loadu_ps(p); }
  static Reg Load(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void Store(float* p, Reg x) { _mm512_storeu_ps(p, x); }
  static void Store(float* p, Reg x, Mask m) {
    _mm512_mask_storeu_ps(p, m, x);
  }
  static Reg Fma(Reg a, Reg b, Reg acc) { return _mm512_fmadd_ps(a, b, acc); }
  static Reg Add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
};
// An 8×2-vector tile keeps 16 of the 32 zmm registers as accumulators.
constexpr int kMr = 8;
constexpr int kGemvNv = 8;
#elif EAGLE_GEMM_SIMD
// 8 lanes; a tail mask is an all-ones word per lane.
struct Vec {
  static constexpr int kLanes = 8;
  using Reg = __m256;
  using Mask = __m256i;
  static Mask FirstLanes(int w) {
    static constexpr std::int32_t kWords[16] = {-1, -1, -1, -1, -1, -1,
                                                -1, -1, 0,  0,  0,  0,
                                                0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kWords + kLanes - w));
  }
  static Reg Zero() { return _mm256_setzero_ps(); }
  static Reg Splat(float x) { return _mm256_set1_ps(x); }
  static Reg Load(const float* p) { return _mm256_loadu_ps(p); }
  static Reg Load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void Store(float* p, Reg x) { _mm256_storeu_ps(p, x); }
  static void Store(float* p, Reg x, Mask m) { _mm256_maskstore_ps(p, m, x); }
  static Reg Fma(Reg a, Reg b, Reg acc) { return _mm256_fmadd_ps(a, b, acc); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
};
// A 4×2-vector tile, unrolled two steps, fills 14 of the 16 ymm registers.
constexpr int kMr = 4;
constexpr int kGemvNv = 8;
#else
// Portable: 8 lanes as a GNU vector, which GCC and Clang lower to the
// target's vectors (or to scalars); the lane loop of Fma rounds as
// MulAdd does and is vectorized back into fmas. A tail mask is the number
// of live lanes. Parameters are taken by const reference, because GCC
// notes that passing 32-byte vectors by value without AVX changed ABI;
// the by-value returns would warn the same way (-Wpsabi), and they only
// pass between functions of this file, so that warning is off from here
// on.
#pragma GCC diagnostic ignored "-Wpsabi"
struct Vec {
  static constexpr int kLanes = 8;
  using Reg = float __attribute__((vector_size(kLanes * sizeof(float))));
  using Mask = int;
  static Mask FirstLanes(int w) { return w; }
  static Reg Zero() { return Splat(0.0f); }
  static Reg Splat(float x) { return Reg{x, x, x, x, x, x, x, x}; }
  static Reg Load(const float* p) {
    Reg r{};
    std::memcpy(&r, p, sizeof r);
    return r;
  }
  static Reg Load(const float* p, Mask m) {
    float lanes[kLanes] = {};
    for (int i = 0; i < m; ++i) lanes[i] = p[i];
    return Load(lanes);
  }
  // The lane loops run on local copies of their operands, which nothing
  // can alias (a store through `p` could alias `x`); GCC vectorizes them
  // as it did when the operands came by value.
  static void Store(float* p, const Reg& x) { std::memcpy(p, &x, sizeof x); }
  static void Store(float* p, const Reg& x, Mask m) {
    const Reg lanes = x;
    for (int i = 0; i < m; ++i) p[i] = lanes[i];
  }
  static Reg Fma(const Reg& a, const Reg& b, const Reg& acc) {
    const Reg x = a, y = b;
    Reg sum = acc;
    for (int i = 0; i < kLanes; ++i) sum[i] = MulAdd(x[i], y[i], sum[i]);
    return sum;
  }
  static Reg Add(const Reg& a, const Reg& b) { return a + b; }
};
constexpr int kMr = 4;
// At eight vectors GCC leaves the row tile's vector loops rolled, at
// under half the speed.
constexpr int kGemvNv = 4;
#endif

constexpr int kLanes = Vec::kLanes;

// MR×NV-vector tile: o[r, v·kLanes + l] folds Σ_p A(r, p) · B(p, ·). When
// Tail is set, the last vector covers only the lanes set in `tail`. Tiles
// of up to two vectors unroll the p loop by two — each accumulator still
// folds p in ascending order, the unroll only amortizes loop control and
// address arithmetic over twice the fma work. The kGemvNv-vector row tile
// already hides fma latency, and at 8 lanes has no registers left for it.
template <int MR, int NV, bool Tail, Fold F, typename Src>
void GemmTile(Src s, float* o, std::ptrdiff_t ldo, int kk, Vec::Mask tail) {
  const auto load = [tail](const float* p, int v) {
    return Tail && v == NV - 1 ? Vec::Load(p, tail) : Vec::Load(p);
  };
  Vec::Reg acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = F == Fold::kFromOut ? load(o + r * ldo + kLanes * v, v)
                                      : Vec::Zero();
  int p = 0;
  if constexpr (NV <= 2) {
    for (; p + 2 <= kk; p += 2) {
      const float* bp0 = s.BRow(p);
      const float* bp1 = s.BRow(p + 1);
      Vec::Reg b0[NV], b1[NV];
      for (int v = 0; v < NV; ++v) {
        b0[v] = load(bp0 + kLanes * v, v);
        b1[v] = load(bp1 + kLanes * v, v);
      }
      const float* ap0 = s.ARow(p);
      const float* ap1 = s.ARow(p + 1);
      for (int r = 0; r < MR; ++r) {
        const Vec::Reg av0 = Vec::Splat(ap0[r * s.row_stride]);
        for (int v = 0; v < NV; ++v)
          acc[r][v] = Vec::Fma(av0, b0[v], acc[r][v]);
        const Vec::Reg av1 = Vec::Splat(ap1[r * s.row_stride]);
        for (int v = 0; v < NV; ++v)
          acc[r][v] = Vec::Fma(av1, b1[v], acc[r][v]);
      }
    }
  }
  for (; p < kk; ++p) {
    const float* bp = s.BRow(p);
    Vec::Reg bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load(bp + kLanes * v, v);
    const float* ap = s.ARow(p);
    for (int r = 0; r < MR; ++r) {
      const Vec::Reg av = Vec::Splat(ap[r * s.row_stride]);
      for (int v = 0; v < NV; ++v) acc[r][v] = Vec::Fma(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      float* dst = o + r * ldo + kLanes * v;
      if constexpr (F == Fold::kFromZero) {
        acc[r][v] = Vec::Add(load(dst, v), acc[r][v]);
      }
      if (Tail && v == NV - 1) {
        Vec::Store(dst, acc[r][v], tail);
      } else {
        Vec::Store(dst, acc[r][v]);
      }
    }
  }
}

// One tile of `rows` < kMr rows, as the kernel of exactly that height
// (H + 1 for the matching H), so its accumulators stay in registers.
template <int NV, bool Tail, Fold F, typename Src, int... H>
void GemmShortTile(Src s, float* o, std::ptrdiff_t ldo, int rows, int kk,
                   Vec::Mask tail, std::integer_sequence<int, H...>) {
  ((rows == H + 1 ? GemmTile<H + 1, NV, Tail, F>(s, o, ldo, kk, tail)
                  : void()),
   ...);
}

// All m rows of one column panel: kMr-row tiles, then one tile of the
// remainder's height (a 6% edge fraction through a slow path costs 2×
// overall).
template <int NV, bool Tail, Fold F, typename Src>
void GemmRowSweep(Src s, float* o, std::ptrdiff_t ldo, int m, int kk,
                  Vec::Mask tail) {
  int i0 = 0;
  for (; i0 + kMr <= m; i0 += kMr) {
    GemmTile<kMr, NV, Tail, F>(s.At(i0, 0), o + i0 * ldo, ldo, kk, tail);
  }
  if (i0 < m) {
    GemmShortTile<NV, Tail, F>(
        s.At(i0, 0), o + i0 * ldo, ldo, m - i0, kk, tail,
        std::make_integer_sequence<int, kMr - 1>{});
  }
}

// o (m×n, row stride ldo) folds Σ_p A(r, p) · B(p, j) over p = 0..kk-1.
template <Fold F, typename Src>
void GemmBlocked(Src s, float* o, std::ptrdiff_t ldo, int m, int n, int kk) {
  int j0 = 0;
  if (m < 4) {
    // A 1–3-row output (a decoder step's GEMV) gives a two-vector tile
    // only two fma chains per row, each waiting out the fma latency at
    // every step. Each row takes kGemvNv-vector tiles instead, whose
    // independent chains keep both fma ports busy.
    for (; j0 + kGemvNv * kLanes <= n; j0 += kGemvNv * kLanes)
      for (int i = 0; i < m; ++i)
        GemmTile<1, kGemvNv, false, F>(s.At(i, j0), o + i * ldo + j0, ldo, kk,
                                       Vec::Mask{});
  }
  for (; j0 + 2 * kLanes <= n; j0 += 2 * kLanes) {
    GemmRowSweep<2, false, F>(s.At(0, j0), o + j0, ldo, m, kk, Vec::Mask{});
  }
  const int w = n - j0;
  if (w > kLanes) {
    GemmRowSweep<2, true, F>(s.At(0, j0), o + j0, ldo, m, kk,
                             Vec::FirstLanes(w - kLanes));
  } else if (w == kLanes) {
    GemmRowSweep<1, false, F>(s.At(0, j0), o + j0, ldo, m, kk, Vec::Mask{});
  } else if (w > 0) {
    GemmRowSweep<1, true, F>(s.At(0, j0), o + j0, ldo, m, kk,
                             Vec::FirstLanes(w));
  }
}

// out (m×n) folds Σ_p a[r, p] · b[p, j] over p = 0..k-1.
template <Fold F>
void GemmFold(const Tensor& a, const Tensor& b, Tensor& out) {
  EAGLE_CHECK_MSG(a.cols() == b.rows() && out.rows() == a.rows() &&
                      out.cols() == b.cols(),
                  "gemm shape mismatch: " << a.ShapeString() << " * "
                                          << b.ShapeString() << " -> "
                                          << out.ShapeString());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;
  GemmBlocked<F>(Strided{a.data(), k, b.data(), n}, out.data(), n, m, n, k);
}

}  // namespace

void GemmAccum(const Tensor& a, const Tensor& b, Tensor& out) {
  GemmFold<Fold::kFromOut>(a, b, out);
}

void GemmAccumFromZero(const Tensor& a, const Tensor& b, Tensor& out) {
  GemmFold<Fold::kFromZero>(a, b, out);
}

void GemmTransAAccumRows(std::span<const float* const> a_rows,
                         std::span<const float* const> b_rows, Tensor& out) {
  EAGLE_CHECK_MSG(a_rows.size() == b_rows.size(),
                  "gemmTA rows mismatch: " << a_rows.size() << " vs "
                                           << b_rows.size());
  const int k = out.rows(), n = out.cols();
  if (k == 0 || n == 0) return;
  GemmBlocked<Fold::kFromOut>(Gathered{a_rows.data(), b_rows.data()},
                              out.data(), n, k, n,
                              static_cast<int>(a_rows.size()));
}

Tensor Transposed(const Tensor& t) {
  Tensor out = Tensor::Uninitialized(t.cols(), t.rows());
  for (int r = 0; r < t.rows(); ++r) {
    const float* src = t.row(r);
    for (int c = 0; c < t.cols(); ++c) out.row(c)[r] = src[c];
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  GemmAccum(a, b, out);
  return out;
}

void Axpy(float alpha, const Tensor& x, Tensor& y) {
  EAGLE_CHECK_MSG(x.SameShape(y), "axpy shape mismatch");
  const float* xd = x.data();
  float* yd = y.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) yd[i] = MulAdd(alpha, xd[i], yd[i]);
}

double SquaredNorm(const Tensor& t) {
  double acc = 0.0;
  const float* d = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    acc += static_cast<double>(d[i]) * d[i];
  }
  return acc;
}

}  // namespace eagle::nn
