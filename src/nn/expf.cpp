// ExpF ports glibc 2.36's sysdeps/ieee754/flt-32/e_expf.c with the table
// of e_exp2f_data.c (the optimized-routines algorithm: a 32-entry
// 2^(i/32) table and a cubic in double precision). glibc builds the file
// twice on x86-64 and libm picks the FMA build wherever the CPU has FMA;
// that compiler contracted four of its multiply-adds, so they are spelled
// as std::fma here: r = InvLn2N·xd - kd and the three polynomial steps.
// Only r's contraction shows in a result: the build without FMA rounds r
// as z - kd and differs from this port on 0x1.04845ep+5 and
// -0x1.f8cbb2p+5 by one ulp, while each polynomial step gives the same
// float on every input fused or not. errno and the exception-raising side
// effects are dropped; no returned value depends on them. The repo's
// -ffp-contract=off keeps the compiler from fusing any other operation.
//
// Single-precision e^x function.
// Copyright (C) 2017-2022 Free Software Foundation, Inc.
// This file is part of the GNU C Library.
//
// The GNU C Library is free software; you can redistribute it and/or
// modify it under the terms of the GNU Lesser General Public
// License as published by the Free Software Foundation; either
// version 2.1 of the License, or (at your option) any later version.
//
// The GNU C Library is distributed in the hope that it will be useful,
// but WITHOUT ANY WARRANTY; without even the implied warranty of
// MERCHANTABILITY or FITNESS FOR A PARTICULAR PURPOSE.  See the GNU
// Lesser General Public License for more details.
//
// You should have received a copy of the GNU Lesser General Public
// License along with the GNU C Library; if not, see
// <https://www.gnu.org/licenses/>.

#include "nn/expf.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(EAGLE_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define EAGLE_EXP_SIMD 1
#include <immintrin.h>
#endif

namespace eagle::nn {

namespace {

constexpr int kTableBits = 5;
constexpr int kN = 1 << kTableBits;

// kTable[i] = uint(2^(i/N)) - (i << 52-BITS), used for computing 2^(k/N)
// for an int |k| < 150 N as double(kTable[k%N] + (k << 52-BITS)).
alignas(32) constexpr std::uint64_t kTable[kN] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kShift = 0x1.8p+52;
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * kN;
// The cubic's coefficients, scaled for r in units of 1/N.
constexpr double kC0 = 0x1.c6af84b912394p-5 / kN / kN / kN;
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / kN / kN;
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / kN;

// The word of |x| at and above which ExpF leaves the main path: |x| >= 88
// (top12(88.0f)), Inf and NaN.
constexpr std::uint32_t kSpecialAbs = 0x42b00000u;

std::uint32_t Top12(float x) { return std::bit_cast<std::uint32_t>(x) >> 20; }

#if EAGLE_EXP_SIMD

// ExpF's main path on four lanes, each a float widened to double.
__m128 ExpHalfAvx2(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  // x*N/Ln2 = k + r with r in [-1/2, 1/2] and int k.
  const __m256d z = _mm256_mul_pd(_mm256_set1_pd(kInvLn2N), xd);
  __m256d kd = _mm256_add_pd(z, _mm256_set1_pd(kShift));
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, _mm256_set1_pd(kShift));
  const __m256d r = _mm256_fmsub_pd(_mm256_set1_pd(kInvLn2N), xd, kd);
  // exp(x) = 2^(k/N) * 2^(r/N) ~= s * (C0*r^3 + C1*r^2 + C2*r + 1)
  __m256i t = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(kN - 1)), 8);
  t = _mm256_add_epi64(t, _mm256_slli_epi64(ki, 52 - kTableBits));
  const __m256d s = _mm256_castsi256_pd(t);
  const __m256d c = _mm256_fmadd_pd(_mm256_set1_pd(kC0), r,
                                    _mm256_set1_pd(kC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(c, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

__m256 ExpAvx2(__m256 x) {
  return _mm256_set_m128(ExpHalfAvx2(_mm256_extractf128_ps(x, 1)),
                         ExpHalfAvx2(_mm256_castps256_ps128(x)));
}

// Bit l set where lane l of x takes ExpF's special-case branch.
int SpecialLanes(__m256 x) {
  const __m256i abs = _mm256_and_si256(_mm256_castps_si256(x),
                                       _mm256_set1_epi32(0x7fffffff));
  return _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
      abs, _mm256_set1_epi32(static_cast<int>(kSpecialAbs - 1)))));
}

// Stores y to out, then recomputes the lanes of x in `special` with the
// scalar form f.
template <typename F>
void StoreLanes(float* out, __m256 x, __m256 y, int special, F f) {
  _mm256_storeu_ps(out, y);
  if (special == 0) return;
  alignas(32) float in[8];
  _mm256_store_ps(in, x);
  for (int l = 0; l < 8; ++l) {
    if ((special >> l & 1) != 0) out[l] = f(in[l]);
  }
}

#endif  // EAGLE_EXP_SIMD

}  // namespace

float ExpF(float x) {
  const double xd = x;
  const std::uint32_t abstop = Top12(x) & 0x7ff;
  if (abstop >= Top12(88.0f)) [[unlikely]] {
    // |x| >= 88 or x is NaN.
    if (x == -std::numeric_limits<float>::infinity()) return 0.0f;
    if (abstop >= Top12(std::numeric_limits<float>::infinity())) {
      return x + x;
    }
    if (x > 0x1.62e42ep6f) {  // x > log(0x1p128) ~= 88.72: overflow
      return std::numeric_limits<float>::infinity();
    }
    if (x < -0x1.9fe368p6f) return 0.0f;  // x < log(0x1p-150) ~= -103.97
  }

  // x*N/Ln2 = k + r with r in [-1/2, 1/2] and int k. Adding and
  // subtracting SHIFT rounds z to an int, ties to even.
  const double z = kInvLn2N * xd;
  double kd = z + kShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);

  // exp(x) = 2^(k/N) * 2^(r/N) ~= s * (C0*r^3 + C1*r^2 + C2*r + 1)
  std::uint64_t t = kTable[ki % kN];
  t += ki << (52 - kTableBits);
  const double s = std::bit_cast<double>(t);
  const double c = std::fma(kC0, r, kC1);
  const double r2 = r * r;
  double y = std::fma(kC2, r, 1.0);
  y = std::fma(c, r2, y);
  y = y * s;
  return static_cast<float>(y);
}

void ExpInPlace(std::span<float> values) {
  std::size_t i = 0;
#if EAGLE_EXP_SIMD
  for (; i + 8 <= values.size(); i += 8) {
    float* v = values.data() + i;
    const __m256 x = _mm256_loadu_ps(v);
    StoreLanes(v, x, ExpAvx2(x), SpecialLanes(x), ExpF);
  }
#endif
  for (; i < values.size(); ++i) values[i] = ExpF(values[i]);
}

void SigmoidInPlace(std::span<float> values) {
  std::size_t i = 0;
#if EAGLE_EXP_SIMD
  const __m256 one = _mm256_set1_ps(1.0f);
  for (; i + 8 <= values.size(); i += 8) {
    float* v = values.data() + i;
    const __m256 x = _mm256_loadu_ps(v);
    const __m256 e = ExpAvx2(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));
    StoreLanes(v, x, _mm256_div_ps(one, _mm256_add_ps(one, e)),
               SpecialLanes(x), SigmoidF);
  }
#endif
  for (; i < values.size(); ++i) values[i] = SigmoidF(values[i]);
}

}  // namespace eagle::nn
