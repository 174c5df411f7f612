// Placeto-style incremental placement agent (Addanki et al., NeurIPS 2019
// — discussed in §II-C).
//
// Instead of emitting a whole placement in one shot, the agent sweeps the
// operation groups and re-places one group per step, observing the
// simulated per-step time after every single change, so each reward
// directly reflects the step's decision. As the paper notes, "this
// approach required an extremely large number of steps to train ... hence
// they used a simulator to evaluate the placements" — which is exactly
// what this implementation does: it queries the ExecutionSimulator
// directly and bypasses the expensive 15-step measurement protocol (its
// evaluation count is reported instead of virtual hours).
//
// Policy: a small MLP over [group embedding ; one-hot current device ;
// per-device op-count shares], REINFORCE on per-step improvement rewards
// with an EMA baseline.
#pragma once

#include <vector>

#include "core/group_embedding.h"
#include "nn/adam.h"
#include "nn/layers.h"
#include "sim/simulator.h"

namespace eagle::core {

struct PlacetoOptions {
  int episodes = 40;      // full sweeps over the groups
  int num_groups = 24;    // grouping granularity (METIS, as Placeto
                          // operated on pre-grouped graphs)
  int hidden = 32;
  double lr = 0.01;
  double entropy_coef = 0.01;
  double ema_decay = 0.9;
  std::uint64_t seed = 5;
};

struct PlacetoResult {
  bool found_valid = false;
  sim::Placement best_placement;
  double best_per_step_seconds = 0.0;
  int simulator_evaluations = 0;
  // Best-so-far per completed episode (for convergence plots).
  std::vector<double> episode_best;
};

class PlacetoAgent {
 public:
  PlacetoAgent(const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
               PlacetoOptions options = {});

  PlacetoResult Train();

 private:
  // Samples (or argmax-picks) a device for `group` given the current
  // per-group device assignment; returns device and appends the step's
  // log-prob/entropy vars.
  int PolicyStep(nn::Tape& tape, int group,
                 const std::vector<std::int32_t>& devices,
                 support::Rng& rng, std::vector<nn::Var>& logps,
                 std::vector<nn::Var>& entropies);

  double Evaluate(const std::vector<std::int32_t>& group_devices,
                  sim::StepResult* step_out);

  const graph::OpGraph* graph_;
  const sim::ClusterSpec* cluster_;
  PlacetoOptions options_;
  graph::Grouping grouping_;
  nn::Tensor embeddings_;
  nn::ParamStore store_;
  nn::Linear l1_;
  nn::Linear l2_;
  sim::ExecutionSimulator simulator_;
  int eval_count_ = 0;
};

}  // namespace eagle::core
