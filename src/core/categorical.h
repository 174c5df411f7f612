// The categorical policy head every agent decides through: one draw per
// row of a logits matrix — a group per op for the grouper (§III-B), a
// device per group for the placers (§III-C) and Post — plus the summed
// log-probability and the mean entropy the RL losses read. Sampling and
// scoring run the same sequence, so a sample re-scored under unchanged
// parameters reproduces its log-probability bit for bit (the invariant
// PPO's ratio relies on).
//
// The head has two halves. The distribution (log-softmax, softmax, mean
// entropy) depends on the logits alone, so every decision drawn or scored
// under the same logits can share one; the decision (draws or forced
// choices, summed log-prob) is per sample. Categorical() composes them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tape.h"
#include "support/rng.h"

namespace eagle::core {

// The sample-invariant half.
struct CategoricalDistribution {
  nn::Var log_probs;  // rows × classes log-softmax
  nn::Var probs;      // rows × classes softmax
  nn::Var entropy;    // 1×1: mean per-row policy entropy
};

struct CategoricalHead {
  std::vector<std::int32_t> choices;  // one per row
  nn::Var log_prob;  // 1×1: Σ_rows log p(choice_row)
  nn::Var entropy;   // 1×1: mean per-row policy entropy
  nn::Var probs;     // rows × classes softmax
};

CategoricalDistribution MakeCategoricalDistribution(nn::Tape& tape,
                                                    nn::Var logits);

// The per-decision half: samples one choice per row of `dist.probs` (rng
// set, `forced` empty) or scores `forced`, one choice per row (rng null),
// and sums their log-probs; `entropy` and `probs` are the distribution's.
// Throws std::logic_error unless exactly one of the two is set and
// `forced` matches the row count, or when a forced choice is outside
// [0, classes).
CategoricalHead DecideCategorical(nn::Tape& tape,
                                  const CategoricalDistribution& dist,
                                  support::Rng* rng,
                                  std::span<const std::int32_t> forced);

// Both halves on `logits`; see DecideCategorical for rng / forced.
CategoricalHead Categorical(nn::Tape& tape, nn::Var logits, support::Rng* rng,
                            std::span<const std::int32_t> forced);

// The head of a batch of one-row decisions, one per row of `logits` (a
// placer step over B sample lanes): each row's own log-prob and entropy.
struct CategoricalRows {
  std::vector<std::int32_t> choices;  // one per row
  nn::Var log_probs;  // rows×1: log p(choice_row)
  nn::Var entropies;  // rows×1: -Σ_c p log p of each row
};

// Runs Categorical's op sequence row by row, so a row's entropy is
// Categorical()'s on that row alone, and its log-prob is the one entry
// Categorical() sums (they differ only in the sign of a zero, which the
// rollout's sum from zero drops). rng / forced as in DecideCategorical.
CategoricalRows CategoricalPerRow(nn::Tape& tape, nn::Var logits,
                                  support::Rng* rng,
                                  std::span<const std::int32_t> forced);

}  // namespace eagle::core
