// Reward shaping (Eq. 4): R = -sqrt(per-step time); invalid placements are
// charged a penalty time so the agent learns to avoid OOM regions. The
// EMA baseline turns those rewards into advantages.
#pragma once

#include "sim/measurement.h"

namespace eagle::rl {

struct RewardOptions {
  // Per-step time charged to invalid (OOM) placements. Benches set this to
  // ~10x a feasible placement's time; must be positive.
  double invalid_penalty_seconds = 100.0;
};

double ComputeReward(const sim::EvalResult& eval,
                     const RewardOptions& options);

// Exponential-moving-average reward baseline (§III-D). The paper found an
// A2C-style value network under-trained at device-placement sample rates
// and replaced it with an EMA baseline:
//   B_t = ExpMovAvg(R_t),  Â_t = R_t - B_t.
class EmaBaseline {
 public:
  explicit EmaBaseline(double decay = 0.9) : decay_(decay) {}

  // Returns the advantage R - B using the baseline *before* folding R in,
  // then updates the average. The first observation seeds the baseline
  // (advantage 0), matching common implementations.
  double AdvantageAndUpdate(double reward) {
    if (!initialized_) {
      value_ = reward;
      initialized_ = true;
      return 0.0;
    }
    const double advantage = reward - value_;
    value_ = decay_ * value_ + (1.0 - decay_) * reward;
    return advantage;
  }

  double value() const { return value_; }
  bool initialized() const { return initialized_; }

  // Restores a checkpointed baseline (crash-safe training resume).
  void set_state(double value, bool initialized) {
    value_ = value;
    initialized_ = initialized;
  }

 private:
  double decay_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace eagle::rl
