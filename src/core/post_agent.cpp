#include "core/post_agent.h"

#include "partition/metis_like.h"

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

CategoricalHead PostAgent::RunPolicy(nn::Tape& tape, support::Rng* rng,
                                     std::span<const std::int32_t> forced) {
  nn::Var x = tape.Input(embeddings_);
  nn::Var logits = l2_.Apply(tape, tape.Tanh(l1_.Apply(tape, x)));  // k×D
  return Categorical(tape, logits, rng, forced);
}

Sample PostAgent::SampleDecision(support::Rng& rng) {
  nn::Tape tape;
  CategoricalHead head = RunPolicy(tape, &rng, {});
  Sample sample;
  sample.grouping = grouping_;
  sample.group_devices = std::move(head.choices);
  sample.logp = static_cast<double>(tape.value(head.log_prob).at(0, 0));
  sample.num_decisions = static_cast<int>(sample.group_devices.size());
  return sample;
}

PostAgent::Score PostAgent::ScoreDecision(nn::Tape& tape,
                                          const Sample& sample) {
  CategoricalHead head = RunPolicy(tape, nullptr, sample.group_devices);
  return Score{head.log_prob, head.entropy};
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
