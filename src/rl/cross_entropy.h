// Cross-entropy minimization over elite samples — the aggressive global
// policy-improvement half of Post's joint algorithm (§II-C, §III-D).
//
// After a window of samples, the top-K by reward are selected and the
// policy is refit to maximize their likelihood:
//   L_CE = -mean_{elite} log π_θ(a|s).
#pragma once

#include <vector>

#include "core/policy.h"
#include "nn/adam.h"

namespace eagle::rl {

struct CrossEntropyOptions {
  int num_elites = 5;
  int epochs = 4;
};

// Picks the elite subset of `pool` (highest reward; invalid samples are
// excluded) and fits the policy to them. No-op if nothing is valid.
// Returns the number of elites used.
int CrossEntropyUpdate(core::PolicyAgent& agent, nn::Adam& optimizer,
                       const std::vector<core::Sample>& pool,
                       const CrossEntropyOptions& options);

// Exposed for testing: indices of the top-k valid samples by reward.
std::vector<std::size_t> SelectElites(const std::vector<core::Sample>& pool,
                                      int k);

}  // namespace eagle::rl
