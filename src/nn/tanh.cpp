// TanhF and ExpM1F port glibc 2.36's sysdeps/ieee754/flt-32/s_tanhf.c and
// s_expm1f.c (the float conversions of fdlibm's s_tanh.c and s_expm1.c by
// Ian Lance Taylor, Cygnus Support). Every operation is spelled as fdlibm
// spells it: no MulAdd, and the repo's -ffp-contract=off keeps the
// compiler from fusing any. errno and the exception-raising side effects
// are dropped; no returned value depends on them.
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

#include "nn/tanh.h"

#include <bit>
#include <cmath>
#include <cstdint>

#if defined(EAGLE_SIMD) && defined(__AVX2__)
#define EAGLE_TANH_SIMD 1
#include <immintrin.h>
#endif

namespace eagle::nn {

namespace {

constexpr float one = 1.0f;
constexpr float two = 2.0f;
constexpr float huge = 1.0e+30f;
constexpr float tiny = 1.0e-30f;
constexpr float o_threshold = 8.8721679688e+01f;  // 0x42b17180
constexpr float ln2_hi = 6.9313812256e-01f;       // 0x3f317180
constexpr float ln2_lo = 9.0580006145e-06f;       // 0x3717f7d1
constexpr float invln2 = 1.4426950216e+00f;       // 0x3fb8aa3b
// Scaled coefficients related to expm1.
constexpr float Q1 = -3.3333335072e-02f;
constexpr float Q2 = 1.5873016091e-03f;
constexpr float Q3 = -7.9365076090e-05f;
constexpr float Q4 = 4.0082177293e-06f;
constexpr float Q5 = -2.0109921195e-07f;

float FromBits(std::uint32_t bits) { return std::bit_cast<float>(bits); }
std::uint32_t Bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// y with k added to its exponent (SET_FLOAT_WORD(y, i + (k << 23))).
float AddExponent(float y, std::int32_t k) {
  return FromBits(Bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

float ExpM1F(float x) {
  float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
  std::int32_t k;
  std::uint32_t hx = Bits(x);
  const std::uint32_t xsb = hx & 0x80000000u;  // sign bit of x
  hx &= 0x7fffffffu;                           // high word of |x|

  // Filter out huge and non-finite arguments.
  if (hx >= 0x4195b844u) {    // |x| >= 27*ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;  // exp(+-inf)
      if (x > o_threshold) return huge * huge;  // overflow
    }
    if (xsb != 0) return tiny - one;  // x < -27*ln2: -1 with inexact
  }

  // Argument reduction.
  if (hx > 0x3eb17218u) {    // |x| > 0.5 ln2
    if (hx < 0x3F851592u) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + (xsb == 0 ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t*ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2**-25: return x
    t = huge + x;  // return x with inexact flags when x != 0
    return x - (t - (huge + x));
  } else {
    k = 0;
  }

  // x is now in the primary range.
  hfx = 0.5f * x;
  hxs = x * hfx;
  r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  t = 3.0f - r1 * hfx;
  e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {  // suffices to return exp(x)-1
    y = one - (e - x);
    return AddExponent(y, k) - one;
  }
  if (k < 23) {
    t = FromBits(0x3f800000u - (0x1000000u >> k));  // t = 1-2^-k
    y = t - (e - x);
  } else {
    t = FromBits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
  }
  return AddExponent(y, k);
}

#if EAGLE_TANH_SIMD

__m256 Select(__m256 mask, __m256 if_set, __m256 if_clear) {
  return _mm256_blendv_ps(if_clear, if_set, mask);
}
__m256i Select(__m256i mask, __m256i if_set, __m256i if_clear) {
  return _mm256_blendv_epi8(if_clear, if_set, mask);
}
__m256 AsFloat(__m256i v) { return _mm256_castsi256_ps(v); }
__m256i AsInt(__m256 v) { return _mm256_castps_si256(v); }
__m256 Splat(float v) { return _mm256_set1_ps(v); }
__m256i Splat(std::int32_t v) { return _mm256_set1_epi32(v); }
__m256i Splat(std::uint32_t v) {
  return _mm256_set1_epi32(static_cast<std::int32_t>(v));
}
// a > b on words whose sign bit is clear (|x| bit patterns) or on ints.
__m256 Greater(__m256i a, __m256i b) {
  return AsFloat(_mm256_cmpgt_epi32(a, b));
}
__m256 Neg(__m256 v) { return _mm256_xor_ps(v, Splat(-0.0f)); }
__m256 AddExponent(__m256 y, __m256i k) {
  return AsFloat(_mm256_add_epi32(AsInt(y), _mm256_slli_epi32(k, 23)));
}

// ExpM1F in eight lanes for the arguments TanhF passes it: ±2|x| with
// 2**-55 <= |x| < 22, so none of the overflow, NaN or x < -27 ln2 filters
// apply. Lanes outside that range compute garbage the caller discards.
// A positive argument is 2|x| >= 2, whose k is at least 3, so the k = +1
// branch is left out; 23 <= k <= 56 needs |x| >= 7.8 and is computed only
// when some lane's k reaches 23.
__m256 ExpM1Avx2(__m256 x) {
  const __m256i hx = _mm256_and_si256(AsInt(x), Splat(0x7fffffffu));
  const __m256 negative = AsFloat(_mm256_srai_epi32(AsInt(x), 31));

  // Argument reduction: |x| in (0.5 ln2, 1.5 ln2) takes k = ±1, larger
  // |x| the rounded k; |x| <= 0.5 ln2 keeps x with k = 0.
  const __m256 reduce = Greater(hx, Splat(0x3eb17218u));
  const __m256 near = Greater(Splat(0x3F851592u), hx);
  const __m256 hi_near = Select(negative, _mm256_add_ps(x, Splat(ln2_hi)),
                                _mm256_sub_ps(x, Splat(ln2_hi)));
  const __m256 lo_near = Select(negative, Splat(-ln2_lo), Splat(ln2_lo));
  const __m256i k_near = Select(AsInt(negative), Splat(-1), Splat(1));
  const __m256i k_far = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(Splat(invln2), x),
                    Select(negative, Splat(-0.5f), Splat(0.5f))));
  const __m256 t_far = _mm256_cvtepi32_ps(k_far);
  const __m256 hi_far = _mm256_sub_ps(x, _mm256_mul_ps(t_far, Splat(ln2_hi)));
  const __m256 lo_far = _mm256_mul_ps(t_far, Splat(ln2_lo));
  const __m256 hi = Select(near, hi_near, hi_far);
  const __m256 lo = Select(near, lo_near, lo_far);
  const __m256 reduced = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, reduced), lo);
  const __m256i k = _mm256_and_si256(AsInt(reduce),
                                     Select(AsInt(near), k_near, k_far));
  const __m256 r = Select(reduce, reduced, x);

  // |x| < 2**-25 returns x.
  const __m256 tiny_t = _mm256_add_ps(Splat(huge), x);
  const __m256 tiny_result = _mm256_sub_ps(
      x, _mm256_sub_ps(tiny_t, _mm256_add_ps(Splat(huge), x)));

  // The primary range.
  const __m256 hfx = _mm256_mul_ps(Splat(0.5f), r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 poly = _mm256_add_ps(Splat(Q4), _mm256_mul_ps(hxs, Splat(Q5)));
  poly = _mm256_add_ps(Splat(Q3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(Splat(Q2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(Splat(Q1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(Splat(one), _mm256_mul_ps(hxs, poly));
  const __m256 t = _mm256_sub_ps(Splat(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(Splat(6.0f), _mm256_mul_ps(r, t))));
  const __m256 k0 = _mm256_sub_ps(
      r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));

  const __m256 ek = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 k_minus1 = _mm256_sub_ps(
      _mm256_mul_ps(Splat(0.5f), _mm256_sub_ps(r, ek)), Splat(0.5f));
  const __m256 k_outer = _mm256_sub_ps(
      AddExponent(_mm256_sub_ps(Splat(one), _mm256_sub_ps(ek, r)), k),
      Splat(one));
  const __m256 t_low = AsFloat(_mm256_sub_epi32(
      Splat(0x3f800000u), _mm256_srlv_epi32(Splat(0x1000000u), k)));
  __m256 result = AddExponent(_mm256_sub_ps(t_low, _mm256_sub_ps(ek, r)), k);

  // 2 <= k < 23 above, then 23 <= k <= 56, the outer ranges, -1 and 0.
  const __m256 high = Greater(k, Splat(22));
  if (_mm256_movemask_ps(high) != 0) {
    const __m256 t_high =
        AsFloat(_mm256_slli_epi32(_mm256_sub_epi32(Splat(0x7f), k), 23));
    const __m256 k_high = AddExponent(
        _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(ek, t_high)),
                      Splat(one)),
        k);
    result = Select(high, k_high, result);
  }
  result = Select(_mm256_or_ps(Greater(Splat(-1), k), Greater(k, Splat(56))),
                  k_outer, result);
  result = Select(AsFloat(_mm256_cmpeq_epi32(k, Splat(-1))), k_minus1, result);
  result = Select(AsFloat(_mm256_cmpeq_epi32(k, Splat(0))), k0, result);
  return Select(Greater(Splat(0x33000000u), hx), tiny_result, result);
}

// TanhF in eight lanes.
__m256 TanhAvx2(__m256 x) {
  const __m256i ix = _mm256_and_si256(AsInt(x), Splat(0x7fffffffu));
  const __m256 ax = AsFloat(ix);
  const __m256 negative = AsFloat(_mm256_srai_epi32(AsInt(x), 31));

  // 2**-55 <= |x| < 22.
  const __m256 ge_one = Greater(ix, Splat(0x3f7fffffu));
  const __m256 t = ExpM1Avx2(Select(ge_one, _mm256_mul_ps(Splat(two), ax),
                                    _mm256_mul_ps(Splat(-two), ax)));
  // One division per lane: two/(t+two) where |x| >= 1, -t/(t+two) below.
  const __m256 q = _mm256_div_ps(Select(ge_one, Splat(two), Neg(t)),
                                 _mm256_add_ps(t, Splat(two)));
  __m256 z = Select(ge_one, _mm256_sub_ps(Splat(one), q), q);
  // |x| >= 22 returns ±1.
  z = Select(Greater(Splat(0x41b00000u), ix), z,
             _mm256_sub_ps(Splat(one), Splat(tiny)));
  __m256 result = Select(negative, Neg(z), z);
  // |x| < 2**-55 returns x*(1+x), and ±0 itself.
  result = Select(Greater(Splat(0x24000000u), ix),
                  _mm256_mul_ps(x, _mm256_add_ps(Splat(one), x)), result);
  result = Select(AsFloat(_mm256_cmpeq_epi32(ix, Splat(0))), x, result);
  // Inf and NaN.
  const __m256 special = Greater(ix, Splat(0x7f7fffffu));
  if (_mm256_movemask_ps(special) == 0) return result;
  const __m256 inverse = _mm256_div_ps(Splat(one), x);
  return Select(special,
                Select(negative, _mm256_sub_ps(inverse, Splat(one)),
                       _mm256_add_ps(inverse, Splat(one))),
                result);
}

#endif  // EAGLE_TANH_SIMD

}  // namespace

float TanhF(float x) {
  float t, z;
  const std::int32_t jx = std::bit_cast<std::int32_t>(x);
  const std::int32_t ix = jx & 0x7fffffff;

  // x is Inf or NaN.
  if (ix >= 0x7f800000) {
    if (jx >= 0) return one / x + one;  // tanh(+-inf) = +-1
    return one / x - one;               // tanh(NaN) = NaN
  }

  if (ix < 0x41b00000) {  // |x| < 22
    if (ix == 0) return x;          // x == +-0
    if (ix < 0x24000000) {          // |x| < 2**-55
      return x * (one + x);         // tanh(small) = small
    }
    if (ix >= 0x3f800000) {  // |x| >= 1
      t = ExpM1F(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      t = ExpM1F(-two * std::fabs(x));
      z = -t / (t + two);
    }
  } else {  // |x| >= 22: return +-1
    z = one - tiny;  // raises inexact
  }
  return jx >= 0 ? z : -z;
}

void TanhInPlace(std::span<float> values) {
  std::size_t i = 0;
#if EAGLE_TANH_SIMD
  for (; i + 8 <= values.size(); i += 8) {
    _mm256_storeu_ps(values.data() + i,
                     TanhAvx2(_mm256_loadu_ps(values.data() + i)));
  }
#endif
  for (; i < values.size(); ++i) values[i] = TanhF(values[i]);
}

}  // namespace eagle::nn
