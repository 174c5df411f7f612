#include <gtest/gtest.h>

#include <cmath>

#include "rl/value_baseline.h"

namespace eagle::rl {
namespace {

core::Sample MakeSample(std::vector<std::int32_t> devices, double reward) {
  core::Sample sample;
  sample.group_devices = std::move(devices);
  sample.reward = reward;
  sample.valid = true;
  return sample;
}

TEST(ValueBaseline, PredictsBeforeTrainingIsFinite) {
  ValueBaseline critic(5);
  const double v = critic.Predict(MakeSample({0, 1, 2, 3, 4}, 0.0));
  EXPECT_TRUE(std::isfinite(v));
}

TEST(ValueBaseline, LearnsDecisionConditionedValues) {
  // Two decision mixes with very different rewards: after training the
  // critic must separate them.
  ValueBaseline critic(3, {.hidden = 8, .lr = 0.05, .epochs_per_batch = 4});
  const core::Sample good = MakeSample({0, 0, 0, 0}, -1.0);
  const core::Sample bad = MakeSample({2, 2, 2, 2}, -5.0);
  for (int i = 0; i < 200; ++i) {
    critic.Update({good, bad});
  }
  EXPECT_NEAR(critic.Predict(good), -1.0, 0.5);
  EXPECT_NEAR(critic.Predict(bad), -5.0, 0.5);
  EXPECT_LT(critic.Predict(bad), critic.Predict(good));
}

TEST(ValueBaseline, MseDecreases) {
  ValueBaseline critic(4, {.hidden = 8, .lr = 0.05, .epochs_per_batch = 2});
  std::vector<core::Sample> batch{MakeSample({0, 1}, -2.0),
                                  MakeSample({2, 3}, -4.0)};
  const double first = critic.Update(batch);
  double last = first;
  for (int i = 0; i < 100; ++i) last = critic.Update(batch);
  EXPECT_LT(last, first);
}

TEST(ValueBaseline, EmptyBatchNoop) {
  ValueBaseline critic(3);
  EXPECT_DOUBLE_EQ(critic.Update({}), 0.0);
}

TEST(ValueBaseline, EmptyDecisionHandled) {
  ValueBaseline critic(3);
  core::Sample sample;
  sample.reward = -1.0;
  EXPECT_TRUE(std::isfinite(critic.Predict(sample)));
  EXPECT_GE(critic.Update({sample}), 0.0);
}

TEST(ValueBaseline, RejectsOutOfRangeDevice) {
  ValueBaseline critic(2);
  EXPECT_THROW(critic.Predict(MakeSample({5}, 0.0)), std::logic_error);
}

}  // namespace
}  // namespace eagle::rl
