// The tanh every tape op runs (Tape::Tanh: the grouper, the LSTM cells,
// the attention, Post's FFN and the value baseline).
//
// TanhF is a port of fdlibm's tanhf and the expm1f it calls, as glibc
// 2.36 ships them, so it returns glibc's tanhf bit for bit on every input,
// in IEEE mode and with subnormals flushed; on a libm with a different
// tanhf the repo's bytes stay the same, since it never calls libm's.
// TanhInPlace runs the same IEEE operations eight lanes at a time on AVX2
// (behind EAGLE_SIMD, like the GEMM panels): every branch is computed and
// the lane's own branch is blended in, so each lane equals TanhF. Tails
// and builds without the vector path call TanhF.
#pragma once

#include <span>

namespace eagle::nn {

float TanhF(float x);

// values[i] = TanhF(values[i]).
void TanhInPlace(std::span<float> values);

}  // namespace eagle::nn
