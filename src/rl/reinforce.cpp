#include "rl/reinforce.h"

#include "support/check.h"

namespace eagle::rl {

double ReinforceUpdate(core::PolicyAgent& agent, nn::Adam& optimizer,
                       const std::vector<core::Sample>& batch,
                       const ReinforceOptions& options) {
  EAGLE_CHECK(!batch.empty());
  nn::Tape tape;
  nn::Var loss;
  const float scale = -1.0f / static_cast<float>(batch.size());
  bool first = true;
  std::vector<const core::Sample*> samples;
  for (const core::Sample& sample : batch) samples.push_back(&sample);
  const auto scores = agent.ScoreDecisions(tape, samples);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const core::Sample& sample = batch[i];
    const auto& score = scores[i];
    nn::Var term = tape.Scale(
        score.logp, scale * static_cast<float>(sample.advantage));
    nn::Var ent = tape.Scale(
        score.entropy, scale * static_cast<float>(options.entropy_coef));
    nn::Var combined = tape.Add(term, ent);
    loss = first ? combined : tape.Add(loss, combined);
    first = false;
  }
  tape.Backward(loss);
  return optimizer.Step();
}

}  // namespace eagle::rl
