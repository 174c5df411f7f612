#include "core/post_agent.h"

#include "partition/metis_like.h"
#include "support/check.h"

namespace eagle::core {

PostAgent::PostAgent(const graph::OpGraph& graph,
                     const sim::ClusterSpec& cluster,
                     graph::Grouping grouping, PostAgentConfig config)
    : graph_(&graph),
      cluster_(&cluster),
      config_(std::move(config)),
      grouping_(std::move(grouping)) {
  support::Rng rng(config_.seed);
  embeddings_ = MakeGroupEmbeddings(graph, grouping_, config_.num_groups,
                                    config_.features,
                                    /*include_adjacency=*/true);
  l1_ = nn::Linear(store_, "post/l1", embeddings_.cols(), config_.hidden,
                   rng);
  l2_ = nn::Linear(store_, "post/l2", config_.hidden,
                   cluster.num_devices(), rng);
}

PostAgent::Output PostAgent::RunPolicy(
    nn::Tape& tape, support::Rng* rng,
    const std::vector<std::int32_t>* forced) {
  EAGLE_CHECK((rng != nullptr) != (forced != nullptr));
  const int k = config_.num_groups;
  const int num_devices = cluster_->num_devices();
  nn::Var x = tape.Input(embeddings_);
  nn::Var logits = l2_.Apply(tape, tape.Tanh(l1_.Apply(tape, x)));  // k×D
  nn::Var logp = tape.LogSoftmax(logits);
  nn::Var probs = tape.Softmax(logits);

  Output out;
  out.devices.resize(static_cast<std::size_t>(k));
  std::vector<int> picks(static_cast<std::size_t>(k));
  for (int g = 0; g < k; ++g) {
    int device;
    if (forced != nullptr) {
      device = (*forced)[static_cast<std::size_t>(g)];
      EAGLE_CHECK(device >= 0 && device < num_devices);
    } else {
      device = static_cast<int>(rng->NextFromProbs(
          tape.value(probs).row(g), static_cast<std::size_t>(num_devices)));
    }
    out.devices[static_cast<std::size_t>(g)] = device;
    picks[static_cast<std::size_t>(g)] = device;
  }
  out.logp = tape.Sum(tape.PickPerRow(logp, std::move(picks)));
  out.entropy = tape.Scale(tape.Sum(tape.Mul(probs, logp)),
                           -1.0f / static_cast<float>(k));
  return out;
}

Sample PostAgent::SampleDecision(support::Rng& rng) {
  nn::Tape tape;
  Output out = RunPolicy(tape, &rng, nullptr);
  Sample sample;
  sample.grouping = grouping_;
  sample.group_devices = std::move(out.devices);
  sample.logp = static_cast<double>(tape.value(out.logp).at(0, 0));
  sample.num_decisions = static_cast<int>(sample.group_devices.size());
  return sample;
}

PostAgent::Score PostAgent::ScoreDecision(nn::Tape& tape,
                                          const Sample& sample) {
  Output out = RunPolicy(tape, nullptr, &sample.group_devices);
  return Score{out.logp, out.entropy};
}

sim::Placement PostAgent::ToPlacement(const Sample& sample) const {
  return sim::Placement::FromGroups(*graph_, *cluster_, sample.grouping,
                                    sample.group_devices);
}

std::unique_ptr<PostAgent> MakePostAgent(const graph::OpGraph& graph,
                                         const sim::ClusterSpec& cluster,
                                         int num_groups, std::uint64_t seed) {
  partition::MetisOptions metis;
  metis.num_parts = num_groups;
  metis.seed = seed;
  graph::Grouping grouping = partition::MetisPartition(graph, metis);
  PostAgentConfig config;
  config.num_groups = num_groups;
  config.seed = seed;
  return std::make_unique<PostAgent>(graph, cluster, std::move(grouping),
                                     std::move(config));
}

}  // namespace eagle::core
