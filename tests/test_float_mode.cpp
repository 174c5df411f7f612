// The nn float mode: tape math and optimizer steps flush subnormals to
// zero, and the thread's previous mode comes back as soon as the last
// tape (or Adam::Step) is done, so code outside the nn layer keeps
// default IEEE semantics.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "nn/adam.h"
#include "nn/float_mode.h"
#include "nn/layers.h"
#include "nn/tape.h"

namespace eagle::nn {
namespace {

// The targets FlushDenormalsScope supports; elsewhere it is a no-op.
#if defined(__x86_64__) || defined(_M_X64) || defined(__aarch64__)
constexpr bool kFlushSupported = true;
#else
constexpr bool kFlushSupported = false;
#endif

#define SKIP_WITHOUT_FLUSH_SUPPORT() \
  if (!kFlushSupported) GTEST_SKIP() << "no flush support on this target"

std::uint32_t Bits(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(FloatMode, SoftmaxUnderflowIsExactlyZeroInsideTape) {
  SKIP_WITHOUT_FLUSH_SUPPORT();
  Tape tape;
  Var probs = tape.Softmax(tape.Input(Tensor::FromData(1, 2, {0.0f, -100.0f})));
  // e^-100 ≈ 3.7e-44 is subnormal in float; flushed, it is +0 exactly.
  EXPECT_EQ(Bits(tape.value(probs).at(0, 1)), Bits(0.0f));
  EXPECT_EQ(tape.value(probs).at(0, 0), 1.0f);
}

TEST(FloatMode, CodeOutsideTapesKeepsSubnormals) {
  volatile float logit = -100.0f;
  EXPECT_FALSE(DenormalsFlushed());
  EXPECT_EQ(std::fpclassify(std::exp(logit)), FP_SUBNORMAL);
}

TEST(FloatMode, RestoredAfterSequentialTapes) {
  SKIP_WITHOUT_FLUSH_SUPPORT();
  EXPECT_FALSE(DenormalsFlushed());
  {
    Tape first;
    EXPECT_TRUE(DenormalsFlushed());
    Tape second;  // nested lifetime: restores to "flushed", then clear
    EXPECT_TRUE(DenormalsFlushed());
    first.Reset();
    EXPECT_TRUE(DenormalsFlushed());
  }
  EXPECT_FALSE(DenormalsFlushed());
  {
    Tape again;
    EXPECT_TRUE(DenormalsFlushed());
  }
  EXPECT_FALSE(DenormalsFlushed());
}

TEST(FloatMode, ScopeRestoresAnAlreadyFlushedThread) {
  SKIP_WITHOUT_FLUSH_SUPPORT();
  {
    FlushDenormalsScope outer;
    { Tape tape; }
    // The tape restores what it found, not the IEEE default.
    EXPECT_TRUE(DenormalsFlushed());
  }
  EXPECT_FALSE(DenormalsFlushed());
}

TEST(FloatMode, AdamStepFlushesWithoutATape) {
  SKIP_WITHOUT_FLUSH_SUPPORT();
  ParamStore store;
  Parameter* p = store.Create("p", 1, 1);
  p->value.at(0, 0) = 0.0f;
  p->grad = Tensor(1, 1);
  // First moment (1 - beta1) · 1.5e-38 is subnormal as a float. Flushed,
  // it is 0 and the parameter does not move; kept, the update is ~1e-32.
  p->grad.at(0, 0) = 1.5e-38f;
  AdamOptions options;
  options.clip_norm = 0.0;
  Adam adam(store, options);
  ASSERT_FALSE(DenormalsFlushed());
  adam.Step();
  EXPECT_EQ(Bits(p->value.at(0, 0)), Bits(0.0f));
  EXPECT_FALSE(DenormalsFlushed());
}

}  // namespace
}  // namespace eagle::nn
