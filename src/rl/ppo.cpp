#include "rl/ppo.h"

#include <cmath>

#include "support/check.h"

namespace eagle::rl {

PpoStats PpoUpdate(core::PolicyAgent& agent, nn::Adam& optimizer,
                   const std::vector<core::Sample>& batch,
                   const PpoOptions& options) {
  EAGLE_CHECK(!batch.empty());
  EAGLE_CHECK(options.epochs >= 1);
  PpoStats stats;
  const auto n = static_cast<int>(batch.size());
  const float inv_n = 1.0f / static_cast<float>(n);
  const auto lo = static_cast<float>(1.0 - options.clip_epsilon);
  const auto hi = static_cast<float>(1.0 + options.clip_epsilon);
  std::vector<const core::Sample*> samples;
  for (const core::Sample& sample : batch) samples.push_back(&sample);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    nn::Tape tape;
    nn::Var loss;
    bool first = true;
    double ratio_sum = 0.0;
    const auto scores = agent.ScoreDecisions(tape, samples);
    for (int i = 0; i < n; ++i) {
      const core::Sample& sample = batch[static_cast<std::size_t>(i)];
      const auto& score = scores[static_cast<std::size_t>(i)];
      // log r = logp_new - logp_old (optionally per-decision), clamped
      // before exponentiation.
      nn::Var delta =
          tape.AddScalar(score.logp, -static_cast<float>(sample.logp));
      if (options.normalize_by_decisions && sample.num_decisions > 1) {
        delta = tape.Scale(
            delta, 1.0f / static_cast<float>(sample.num_decisions));
      }
      nn::Var log_ratio = tape.Clamp(
          delta, -static_cast<float>(options.max_abs_log_ratio),
          static_cast<float>(options.max_abs_log_ratio));
      nn::Var ratio = tape.Exp(log_ratio);
      ratio_sum += tape.value(ratio).at(0, 0);
      const auto adv = static_cast<float>(sample.advantage);
      nn::Var surr1 = tape.Scale(ratio, adv);
      nn::Var surr2 = tape.Scale(tape.Clamp(ratio, lo, hi), adv);
      // max of the objective == min of the negated terms; with a shared
      // positive factor we can min() then negate once.
      nn::Var objective = tape.MinElem(surr1, surr2);
      nn::Var term = tape.Scale(objective, -inv_n);
      nn::Var ent = tape.Scale(
          score.entropy,
          -inv_n * static_cast<float>(options.entropy_coef));
      nn::Var combined = tape.Add(term, ent);
      loss = first ? combined : tape.Add(loss, combined);
      first = false;
    }
    tape.Backward(loss);
    stats.grad_norm_last = optimizer.Step();
    stats.mean_ratio_last = ratio_sum / n;
  }
  return stats;
}

}  // namespace eagle::rl
