// A2C-style learned value baseline — the design the paper evaluated and
// rejected (§III-D): "the value network does not have enough samples to
// be trained and may yield inaccurate estimations. The inaccuracy will
// lead to the policy network updating towards a wrong direction."
//
// We implement it so benches can reproduce that finding. The critic is a
// small MLP over a decision summary (the fraction of groups assigned to
// each device plus the invalid bit's precursor: nothing — the critic only
// sees the action mix), trained online by MSE against observed rewards.
// At device-placement sample rates (hundreds of rewards per run) it lags
// the EMA baseline, which is exactly the paper's observation.
#pragma once

#include <vector>

#include "core/policy.h"
#include "nn/adam.h"
#include "nn/layers.h"

namespace eagle::rl {

struct ValueBaselineOptions {
  int hidden = 16;
  double lr = 0.01;
  int epochs_per_batch = 2;
  std::uint64_t seed = 11;
};

class ValueBaseline {
 public:
  ValueBaseline(int num_devices, ValueBaselineOptions options = {});

  // Predicted value for a decision (before seeing its reward).
  double Predict(const core::Sample& sample) const;

  // One MSE training pass over a finished minibatch.
  // Returns the mean squared error before the update (for logging).
  double Update(const std::vector<core::Sample>& batch);

  int num_devices() const { return num_devices_; }

  // Critic parameters + optimizer slots (a parameter section, then an
  // Adam section), embedded in training checkpoints so resumed runs
  // continue bit-compatibly.
  void SaveState(support::ByteWriter& out) const;
  void LoadState(support::ByteReader& in);

 private:
  nn::Tensor Featurize(const core::Sample& sample) const;

  int num_devices_;
  ValueBaselineOptions options_;
  nn::ParamStore store_;
  nn::Linear l1_;
  nn::Linear l2_;
  nn::Adam optimizer_;
};

}  // namespace eagle::rl
