// Clipped-surrogate Proximal Policy Optimization (Eq. 1–3), the paper's
// chosen training algorithm.
//
//   r(θ) = π_θ(a|s) / π_θold(a|s)
//   L = E[min(r·Â, clip(r, 1-ε, 1+ε)·Â)]  maximized, plus entropy bonus.
//
// Multiple epochs re-score the same minibatch under the updated policy;
// per the paper: 10 placements per minibatch, 4 epochs, ε = 0.3,
// entropy coefficient 0.01.
#pragma once

#include <vector>

#include "core/policy.h"
#include "nn/adam.h"

namespace eagle::rl {

struct PpoOptions {
  double clip_epsilon = 0.3;
  int epochs = 4;
  double entropy_coef = 0.01;
  // Importance ratios explode when a re-scored logp drifts far from the
  // sampling logp (common with joint grouper+placer log-probs over
  // thousands of actions); the log-ratio is clamped to keep exp() finite.
  double max_abs_log_ratio = 20.0;
  // Divide the log-ratio by Sample::num_decisions (per-decision geometric
  // mean ratio). Without this, a joint policy over hundreds of
  // categoricals saturates the clip region after the first epoch and PPO
  // degenerates into a single noisy update.
  bool normalize_by_decisions = true;
};

struct PpoStats {
  double grad_norm_last = 0.0;
  double mean_ratio_last = 0.0;
};

PpoStats PpoUpdate(core::PolicyAgent& agent, nn::Adam& optimizer,
                   const std::vector<core::Sample>& batch,
                   const PpoOptions& options);

}  // namespace eagle::rl
