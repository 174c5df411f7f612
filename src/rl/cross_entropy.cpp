#include "rl/cross_entropy.h"

#include <algorithm>
#include <numeric>

#include "support/check.h"

namespace eagle::rl {

std::vector<std::size_t> SelectElites(const std::vector<core::Sample>& pool,
                                      int k) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].valid) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&pool](std::size_t a, std::size_t b) {
    return pool[a].reward > pool[b].reward;
  });
  if (static_cast<int>(idx.size()) > k) {
    idx.resize(static_cast<std::size_t>(k));
  }
  return idx;
}

int CrossEntropyUpdate(core::PolicyAgent& agent, nn::Adam& optimizer,
                       const std::vector<core::Sample>& pool,
                       const CrossEntropyOptions& options) {
  EAGLE_CHECK(options.num_elites >= 1 && options.epochs >= 1);
  const auto elites = SelectElites(pool, options.num_elites);
  if (elites.empty()) return 0;
  const float scale = -1.0f / static_cast<float>(elites.size());
  std::vector<const core::Sample*> samples;
  for (std::size_t i : elites) samples.push_back(&pool[i]);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    nn::Tape tape;
    nn::Var loss;
    bool first = true;
    for (const auto& score : agent.ScoreDecisions(tape, samples)) {
      nn::Var term = tape.Scale(score.logp, scale);
      loss = first ? term : tape.Add(loss, term);
      first = false;
    }
    tape.Backward(loss);
    optimizer.Step();
  }
  return static_cast<int>(elites.size());
}

}  // namespace eagle::rl
