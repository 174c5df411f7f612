#include "core/placeto_agent.h"

#include <cmath>

#include "core/categorical.h"
#include "core/policy.h"
#include "partition/metis_like.h"
#include "support/check.h"

namespace eagle::core {

PlacetoAgent::PlacetoAgent(const graph::OpGraph& graph,
                           const sim::ClusterSpec& cluster,
                           PlacetoOptions options)
    : graph_(&graph),
      cluster_(&cluster),
      options_(options),
      simulator_(graph, cluster) {
  partition::MetisOptions metis;
  metis.num_parts = options_.num_groups;
  metis.seed = options_.seed;
  grouping_ = partition::MetisPartition(graph, metis);
  embeddings_ = MakeGroupEmbeddings(graph, grouping_, options_.num_groups,
                                    FeatureMode::kReconstructed,
                                    /*include_adjacency=*/true);
  support::Rng rng(options_.seed);
  const int state_dim =
      embeddings_.cols() + cluster.num_devices() + cluster.num_devices();
  l1_ = nn::Linear(store_, "placeto/l1", state_dim, options_.hidden, rng);
  l2_ = nn::Linear(store_, "placeto/l2", options_.hidden,
                   cluster.num_devices(), rng);
}

int PlacetoAgent::PolicyStep(nn::Tape& tape, int group,
                             const std::vector<std::int32_t>& devices,
                             support::Rng& rng, std::vector<nn::Var>& logps,
                             std::vector<nn::Var>& entropies) {
  const int num_devices = cluster_->num_devices();
  nn::Tensor state(1, embeddings_.cols() + 2 * num_devices);
  float* row = state.row(0);
  std::copy(embeddings_.row(group), embeddings_.row(group) + embeddings_.cols(),
            row);
  row[embeddings_.cols() + devices[static_cast<std::size_t>(group)]] = 1.0f;
  // Per-device share of groups (the global context Placeto reads from the
  // current placement).
  float* shares = row + embeddings_.cols() + num_devices;
  for (auto d : devices) {
    shares[d] += 1.0f / static_cast<float>(devices.size());
  }
  nn::Var logits =
      l2_.Apply(tape, tape.Tanh(l1_.Apply(tape, tape.Input(std::move(state)))));
  CategoricalHead head = Categorical(tape, logits, &rng, {});
  logps.push_back(head.log_prob);
  entropies.push_back(head.entropy);
  return head.choices[0];
}

double PlacetoAgent::Evaluate(const std::vector<std::int32_t>& group_devices,
                              sim::StepResult* step_out) {
  ++eval_count_;
  const auto step = simulator_.Run(sim::Placement::FromGroups(
      *graph_, *cluster_, grouping_, group_devices));
  if (step_out != nullptr) *step_out = step;
  // Invalid changes are punished with a large effective time (Placeto's
  // simulator rejects them the same way).
  return step.oom ? 10.0 * step.step_seconds + 100.0 : step.step_seconds;
}

PlacetoResult PlacetoAgent::Train() {
  support::Rng rng(options_.seed + 1);
  nn::Adam adam(store_, nn::AdamOptions{.lr = options_.lr,
                                        .beta1 = 0.9,
                                        .beta2 = 0.999,
                                        .eps = 1e-8,
                                        .clip_norm = 1.0});
  EmaBaseline baseline(options_.ema_decay);
  PlacetoResult result;
  result.best_per_step_seconds = std::numeric_limits<double>::infinity();

  const int k = options_.num_groups;
  const auto gpus = cluster_->Gpus();
  for (int episode = 0; episode < options_.episodes; ++episode) {
    // Episodes start from everything on the first GPU (the natural
    // "unplaced" state; usually invalid for the big models, so the agent
    // must discover a valid region by itself).
    std::vector<std::int32_t> devices(static_cast<std::size_t>(k),
                                      gpus.front());
    nn::Tape tape;
    std::vector<nn::Var> logps;
    std::vector<nn::Var> entropies;
    std::vector<double> rewards;
    double previous = Evaluate(devices, nullptr);
    for (int g = 0; g < k; ++g) {
      const int device = PolicyStep(tape, g, devices, rng, logps, entropies);
      devices[static_cast<std::size_t>(g)] = device;
      sim::StepResult step;
      const double current = Evaluate(devices, &step);
      // Reward: improvement in sqrt time (Eq. 4 applied incrementally).
      rewards.push_back(std::sqrt(previous) - std::sqrt(current));
      previous = current;
      if (!step.oom && step.step_seconds < result.best_per_step_seconds) {
        result.found_valid = true;
        result.best_per_step_seconds = step.step_seconds;
        result.best_placement =
            sim::Placement::FromGroups(*graph_, *cluster_, grouping_, devices);
      }
    }
    // REINFORCE with rewards-to-go and the EMA baseline on episode return.
    double episode_return = 0.0;
    for (double r : rewards) episode_return += r;
    const double advantage = baseline.AdvantageAndUpdate(episode_return);
    std::vector<double> to_go(rewards.size());
    double acc = 0.0;
    for (std::size_t i = rewards.size(); i-- > 0;) {
      acc += rewards[i];
      to_go[i] = acc;
    }
    nn::Var loss;
    bool first = true;
    const float inv_k = 1.0f / static_cast<float>(k);
    for (std::size_t i = 0; i < logps.size(); ++i) {
      // Per-step advantage: rewards-to-go recentred by the episode
      // baseline share.
      const double a = to_go[i] - (episode_return - advantage) *
                                      (static_cast<double>(to_go.size() - i) /
                                       to_go.size());
      nn::Var term = tape.Scale(logps[i], -inv_k * static_cast<float>(a));
      nn::Var ent = tape.Scale(entropies[i],
                               -inv_k * static_cast<float>(
                                            options_.entropy_coef));
      nn::Var combined = tape.Add(term, ent);
      loss = first ? combined : tape.Add(loss, combined);
      first = false;
    }
    tape.Backward(loss);
    adam.Step();
    result.episode_best.push_back(result.best_per_step_seconds);
  }
  result.simulator_evaluations = eval_count_;
  return result;
}

}  // namespace eagle::core
