// REINFORCE (policy-gradient) update, the baseline algorithm of §III-D.
#pragma once

#include <vector>

#include "core/policy.h"
#include "nn/adam.h"

namespace eagle::rl {

struct ReinforceOptions {
  double entropy_coef = 0.01;
};

// One gradient step on a minibatch:  L = -mean_i(logp_i * Â_i) - c*H.
// Returns the pre-clip gradient norm.
double ReinforceUpdate(core::PolicyAgent& agent, nn::Adam& optimizer,
                       const std::vector<core::Sample>& batch,
                       const ReinforceOptions& options);

}  // namespace eagle::rl
