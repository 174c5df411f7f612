// The exp every tape op runs (Tape::Exp, Sigmoid, Softmax, LogSoftmax and
// its backward, and the fused LSTM gates).
//
// ExpF is a port of glibc 2.36's expf, as the FMA build libm dispatches
// to on an x86-64 host with FMA compiles it, so it returns that expf bit
// for bit on every input, in IEEE mode and with subnormals flushed; the
// repo's bytes no longer depend on which expf variant a libm picks. The
// vector forms run the same IEEE operations eight lanes at a time on AVX2
// (behind EAGLE_SIMD, like TanhInPlace): two halves of four doubles with
// a table gather, and lanes with |x| >= 88 or NaN recomputed by ExpF, so
// each lane equals ExpF. Tails and builds without the vector path call
// ExpF.
#pragma once

#include <span>

namespace eagle::nn {

float ExpF(float x);

// The logistic sigmoid as the tape spells it: 1 / (1 + ExpF(-x)).
inline float SigmoidF(float x) { return 1.0f / (1.0f + ExpF(-x)); }

// values[i] = ExpF(values[i]).
void ExpInPlace(std::span<float> values);

// values[i] = SigmoidF(values[i]).
void SigmoidInPlace(std::span<float> values);

}  // namespace eagle::nn
