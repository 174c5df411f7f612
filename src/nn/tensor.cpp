#include "nn/tensor.h"

#include <algorithm>
#include <cstddef>
#include <sstream>

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
// Every entry point runs one panel kernel over out[r, j] and
// Σ_p A(r, p) · B(p, j). The fold either starts from out, as the
// reference's in-place accumulation does (GemmAccum and
// GemmTransAAccumRows), or starts from zero and is added to out once at
// the end, as the reference's dot product `acc = 0; acc = fma(...)...;
// out += acc` does (GemmAccumFromZero). The tape runs the dot-product
// form a·cᵀ as GemmAccumFromZero(a, cᵀ): cᵀ's rows are contiguous, so it
// vectorizes across output columns like the others instead of
// reassociating a dot product.
// A panel holds a kMr×kNr accumulator tile in registers (1×kGemvNr for
// outputs of 1–3 rows); the j-inner loops have compile-time trip count
// so they vectorize, and the EAGLE_SIMD path writes the same tile with
// AVX2 fma intrinsics (lane-wise identical to scalar fma).
// ---------------------------------------------------------------------------

namespace {

using detail::MulAdd;

constexpr int kMr = 4;       // rows per register tile
constexpr int kNr = 16;      // max tile width in columns (two 8-float vectors)
constexpr int kGemvNr = 64;  // tile width for 1–3-row outputs (eight vectors)

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

#if EAGLE_GEMM_SIMD
// MR×(8·NV) tile: o[r, 0:8NV] folds Σ_p A(r, p) · B(p, 0:8NV). Tiles of
// up to two vectors unroll the p loop by two — each accumulator still
// folds p in ascending order, the unroll only amortizes loop control and
// address arithmetic over twice the fma work. The eight-vector GEMV tile
// already hides fma latency and has no registers left for it.
template <int MR, int NV, Fold F, typename Src>
void GemmPanelSimd(Src s, float* o, std::ptrdiff_t ldo, int kk) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = F == Fold::kFromZero ? _mm256_setzero_ps()
                                       : _mm256_loadu_ps(o + r * ldo + 8 * v);
  int p = 0;
  if constexpr (NV <= 2) {
    for (; p + 2 <= kk; p += 2) {
      const float* bp0 = s.BRow(p);
      const float* bp1 = s.BRow(p + 1);
      __m256 b0[NV], b1[NV];
      for (int v = 0; v < NV; ++v) {
        b0[v] = _mm256_loadu_ps(bp0 + 8 * v);
        b1[v] = _mm256_loadu_ps(bp1 + 8 * v);
      }
      const float* ap0 = s.ARow(p);
      const float* ap1 = s.ARow(p + 1);
      for (int r = 0; r < MR; ++r) {
        const __m256 av0 = _mm256_set1_ps(ap0[r * s.row_stride]);
        for (int v = 0; v < NV; ++v)
          acc[r][v] = _mm256_fmadd_ps(av0, b0[v], acc[r][v]);
        const __m256 av1 = _mm256_set1_ps(ap1[r * s.row_stride]);
        for (int v = 0; v < NV; ++v)
          acc[r][v] = _mm256_fmadd_ps(av1, b1[v], acc[r][v]);
      }
    }
  }
  for (; p < kk; ++p) {
    const float* bp = s.BRow(p);
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
    const float* ap = s.ARow(p);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(ap[r * s.row_stride]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      float* dst = o + r * ldo + 8 * v;
      if constexpr (F == Fold::kFromZero) {
        acc[r][v] = _mm256_add_ps(_mm256_loadu_ps(dst), acc[r][v]);
      }
      _mm256_storeu_ps(dst, acc[r][v]);
    }
  }
}
#endif  // EAGLE_GEMM_SIMD

// Portable tile with compile-time bounds so the accumulators stay in
// registers and the c-loops vectorize.
template <int MR, int NR, Fold F, typename Src>
void GemmPanelFixed(Src s, float* o, std::ptrdiff_t ldo, int kk) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r)
    for (int c = 0; c < NR; ++c)
      acc[r][c] = F == Fold::kFromZero ? 0.0f : o[r * ldo + c];
  for (int p = 0; p < kk; ++p) {
    const float* ap = s.ARow(p);
    const float* bp = s.BRow(p);
    for (int r = 0; r < MR; ++r) {
      const float av = ap[r * s.row_stride];
      for (int c = 0; c < NR; ++c) acc[r][c] = MulAdd(av, bp[c], acc[r][c]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int c = 0; c < NR; ++c)
      o[r * ldo + c] =
          F == Fold::kFromZero ? o[r * ldo + c] + acc[r][c] : acc[r][c];
}

// One MR-row panel of compile-time width NR (64, 16 or 8 columns).
template <int MR, int NR, Fold F, typename Src>
void GemmPanel(Src s, float* o, std::ptrdiff_t ldo, int kk) {
#if EAGLE_GEMM_SIMD
  GemmPanelSimd<MR, NR / 8, F>(s, o, ldo, kk);
#else
  GemmPanelFixed<MR, NR, F>(s, o, ldo, kk);
#endif
}

// Narrow tail (w < 8 columns), runtime bounds — only sub-vector-width
// column remainders and matrix–vector shapes land here.
template <Fold F, typename Src>
void GemmPanelNarrow(Src s, float* o, std::ptrdiff_t ldo, int mr, int w,
                     int kk) {
  float acc[kMr][8];
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < w; ++c)
      acc[r][c] = F == Fold::kFromZero ? 0.0f : o[r * ldo + c];
  for (int p = 0; p < kk; ++p) {
    const float* ap = s.ARow(p);
    const float* bp = s.BRow(p);
    for (int r = 0; r < mr; ++r) {
      const float av = ap[r * s.row_stride];
      for (int c = 0; c < w; ++c) acc[r][c] = MulAdd(av, bp[c], acc[r][c]);
    }
  }
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < w; ++c)
      o[r * ldo + c] =
          F == Fold::kFromZero ? o[r * ldo + c] + acc[r][c] : acc[r][c];
}

// All m rows of one NR-wide column panel; remainder rows dispatch to
// register kernels of their exact height instead of a runtime-bound
// fallback (a 6% edge fraction through a slow path costs 2× overall).
template <int NR, Fold F, typename Src>
void GemmRowSweep(Src s, float* o, std::ptrdiff_t ldo, int m, int kk) {
  int i0 = 0;
  for (; i0 + kMr <= m; i0 += kMr) {
    GemmPanel<kMr, NR, F>(s.At(i0, 0), o + i0 * ldo, ldo, kk);
  }
  const Src se = s.At(i0, 0);
  float* oe = o + i0 * ldo;
  switch (m - i0) {
    case 1:
      GemmPanel<1, NR, F>(se, oe, ldo, kk);
      break;
    case 2:
      GemmPanel<2, NR, F>(se, oe, ldo, kk);
      break;
    case 3:
      GemmPanel<3, NR, F>(se, oe, ldo, kk);
      break;
    default:
      break;
  }
}

// o (m×n, row stride ldo) folds Σ_p A(r, p) · B(p, j) over p = 0..kk-1.
template <Fold F, typename Src>
void GemmBlocked(Src s, float* o, std::ptrdiff_t ldo, int m, int n, int kk) {
  int j0 = 0;
  if (m < kMr) {
    // A 1–3-row output (a decoder step's GEMV) gives a 16-column tile
    // only two fma chains per row, each waiting out the fma latency at
    // every step. Each row takes 64-column tiles instead: eight
    // independent chains keep both fma ports busy.
    for (; j0 + kGemvNr <= n; j0 += kGemvNr)
      for (int i = 0; i < m; ++i)
        GemmPanel<1, kGemvNr, F>(s.At(i, j0), o + i * ldo + j0, ldo, kk);
  }
  for (; j0 + kNr <= n; j0 += kNr) {
    GemmRowSweep<kNr, F>(s.At(0, j0), o + j0, ldo, m, kk);
  }
  if (n - j0 >= 8) {
    GemmRowSweep<8, F>(s.At(0, j0), o + j0, ldo, m, kk);
    j0 += 8;
  }
  if (j0 < n) {
    for (int i0 = 0; i0 < m; i0 += kMr) {
      GemmPanelNarrow<F>(s.At(i0, j0), o + i0 * ldo + j0, ldo,
                         std::min(kMr, m - i0), n - j0, kk);
    }
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
