// The categorical policy head every agent decides through: one draw per
// row of a logits matrix — a group per op for the grouper (§III-B), a
// device per group for the placers (§III-C) and Post, a device per step
// for the Placeto-style agent — plus the summed log-probability and the
// mean entropy the RL losses read. Sampling and scoring run the same
// sequence, so a sample re-scored under unchanged parameters reproduces
// its log-probability bit for bit (the invariant PPO's ratio relies on).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tape.h"
#include "support/rng.h"

namespace eagle::core {

struct CategoricalHead {
  std::vector<std::int32_t> choices;  // one per row
  nn::Var log_prob;  // 1×1: Σ_rows log p(choice_row)
  nn::Var entropy;   // 1×1: mean per-row policy entropy
  nn::Var probs;     // rows × classes softmax
};

// Samples one choice per row of `logits` (rng set, `forced` empty) or
// scores `forced`, one choice per row (rng null). Throws std::logic_error
// unless exactly one of the two is set and `forced` matches the row count,
// or when a forced choice is outside [0, classes).
CategoricalHead Categorical(nn::Tape& tape, nn::Var logits, support::Rng* rng,
                            std::span<const std::int32_t> forced);

}  // namespace eagle::core
