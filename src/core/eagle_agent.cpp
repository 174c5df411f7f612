#include "core/eagle_agent.h"

#include <algorithm>
#include <cstring>

#include "partition/metis_like.h"
#include "support/check.h"
#include "support/metrics.h"

namespace eagle::core {

namespace {

// Telemetry observer: full grouper forwards. Never read back.
support::metrics::Counter* GrouperForwards() {
  static support::metrics::Counter* const counter =
      support::metrics::GetCounter("agent.grouper_forwards");
  return counter;
}

// Stacks B per-lane k×F tensors into the placer's (k·B)×F layout: lane
// b's row g becomes row g·B + b.
nn::Tensor InterleaveLanes(std::span<const nn::Tensor* const> lanes) {
  const int count = static_cast<int>(lanes.size());
  const int k = lanes[0]->rows();
  const int cols = lanes[0]->cols();
  nn::Tensor stacked(k * count, cols);
  for (int b = 0; b < count; ++b) {
    for (int g = 0; g < k; ++g) {
      std::copy(lanes[static_cast<std::size_t>(b)]->row(g),
                lanes[static_cast<std::size_t>(b)]->row(g) + cols,
                stacked.row(g * count + b));
    }
  }
  return stacked;
}

}  // namespace

HierarchicalAgent::HierarchicalAgent(const graph::OpGraph& graph,
                                     const sim::ClusterSpec& cluster,
                                     HierarchicalAgentConfig config)
    : graph_(&graph),
      cluster_(&cluster),
      plan_(sim::PlanNormalization(graph)),
      config_(std::move(config)) {
  support::Rng rng(config_.seed);
  const int k = config_.dims.num_groups;
  // The GCN placer reads the group adjacency as Â instead.
  const bool adjacency_in_embedding = config_.placer != PlacerKind::kGcn;
  const int embed_dim = GroupEmbeddingDim(k, adjacency_in_embedding);
  const int bridge_dim =
      config_.use_bridge ? config_.dims.bridge_hidden : 0;

  if (config_.grouper == GrouperKind::kLearned) {
    const std::size_t first_param = store_.params().size();
    grouper_ = GrouperFFN(store_, OpFeatureDim(),
                          config_.dims.grouper_hidden, k, rng);
    for (std::size_t i = first_param; i < store_.params().size(); ++i) {
      grouper_params_.push_back(store_.params()[i].get());
    }
    if (config_.use_bridge) {
      bridge_ = BridgeRnn(store_, config_.dims.grouper_hidden,
                          config_.dims.bridge_hidden, rng);
    }
    embedder_ = GroupEmbedder(graph);
    op_features_ = MakeOpFeatures(graph, config_.features);
    locality_prior_ = MakeLocalityPrior(graph, k);
    grouper_weight_ =
        static_cast<double>(k) / std::max(1, graph.num_ops());
  } else {
    EAGLE_CHECK_MSG(!config_.use_bridge,
                    "bridge RNN requires a learned grouper");
    fixed_embeddings_ = MakeGroupEmbeddings(
        graph, config_.fixed_grouping, k, config_.features,
        adjacency_in_embedding);
    if (config_.placer == PlacerKind::kGcn) {
      fixed_adjacency_ = MakeGroupAdjacency(graph, config_.fixed_grouping, k);
    }
  }

  const int placer_input_dim = embed_dim + bridge_dim;
  const int num_devices = cluster.num_devices();
  switch (config_.placer) {
    case PlacerKind::kSeq2Seq:
      seq_placer_ = Seq2SeqPlacer(
          store_, placer_input_dim, config_.dims.placer_hidden,
          config_.dims.attn_dim, config_.dims.device_embed_dim, num_devices,
          config_.attention, rng);
      break;
    case PlacerKind::kGcn:
      gcn_placer_ = GcnPlacer(store_, placer_input_dim,
                              config_.dims.placer_hidden, num_devices, rng);
      break;
    case PlacerKind::kFfn:
      ffn_l1_ = nn::Linear(store_, "post/l1", placer_input_dim,
                           config_.dims.placer_hidden, rng);
      ffn_l2_ = nn::Linear(store_, "post/l2", config_.dims.placer_hidden,
                           num_devices, rng);
      break;
  }
}

CategoricalDistribution HierarchicalAgent::GrouperForward(
    nn::Tape& tape) const {
  GrouperForwards()->Increment();
  return MakeCategoricalDistribution(
      tape, grouper_.Logits(tape, tape.Input(op_features_), &locality_prior_));
}

CategoricalDistribution HierarchicalAgent::SamplingDistribution(
    nn::Tape& tape) {
  bool hit = !cached_params_.empty();
  std::size_t offset = 0;
  for (const nn::Parameter* p : grouper_params_) {
    const auto n = static_cast<std::size_t>(p->value.size());
    hit = hit && std::memcmp(p->value.data(), cached_params_.data() + offset,
                             n * sizeof(float)) == 0;
    offset += n;
  }
  if (!hit) {
    nn::Tape forward;
    const CategoricalDistribution dist = GrouperForward(forward);
    cached_log_probs_ = forward.value(dist.log_probs);
    cached_probs_ = forward.value(dist.probs);
    cached_entropy_ = forward.value(dist.entropy);
    cached_params_.clear();
    for (const nn::Parameter* p : grouper_params_) {
      cached_params_.insert(cached_params_.end(), p->value.data(),
                            p->value.data() + p->value.size());
    }
  }
  // Sampling never back-propagates, so constant inputs stand in for the
  // forward's nodes.
  return CategoricalDistribution{tape.Input(cached_log_probs_),
                                 tape.Input(cached_probs_),
                                 tape.Input(cached_entropy_)};
}

CategoricalDistribution HierarchicalAgent::ScoringDistribution(
    nn::Tape& tape) const {
  if (const std::vector<nn::Var>* memo = tape.FindMemo(this)) {
    return CategoricalDistribution{(*memo)[0], (*memo)[1], (*memo)[2]};
  }
  const CategoricalDistribution dist = GrouperForward(tape);
  tape.Memoize(this, {dist.log_probs, dist.probs, dist.entropy});
  return dist;
}

HierarchicalAgent::PolicyOutput HierarchicalAgent::RunPolicy(
    nn::Tape& tape, const CategoricalDistribution& grouper, support::Rng* rng,
    std::span<const Sample* const> stored) {
  const int k = config_.dims.num_groups;
  const bool learned = config_.grouper == GrouperKind::kLearned;
  const int lanes = rng != nullptr ? 1 : static_cast<int>(stored.size());
  EAGLE_CHECK(lanes >= 1 && (rng == nullptr || stored.empty()));
  EAGLE_CHECK(lanes == 1 || config_.placer == PlacerKind::kSeq2Seq);
  const bool adjacency_in_embedding = config_.placer != PlacerKind::kGcn;
  PolicyOutput out;

  nn::Tensor embeddings;
  std::vector<graph::Grouping> groupings;
  nn::Var grouper_logps;
  if (learned) {
    // One grouper gather per lane, in lane order.
    std::vector<nn::Var> logps;
    for (int b = 0; b < lanes; ++b) {
      CategoricalHead grouped = DecideCategorical(
          tape, grouper, rng,
          rng != nullptr ? std::span<const std::int32_t>()
                         : stored[static_cast<std::size_t>(b)]->grouping);
      groupings.push_back(std::move(grouped.choices));
      logps.push_back(grouped.log_prob);
    }
    grouper_logps = tape.ConcatRows(logps);  // B×1
    std::vector<nn::Tensor> per_lane;
    std::vector<const nn::Tensor*> lane_embeddings;
    per_lane.reserve(groupings.size());
    for (const graph::Grouping& grouping : groupings) {
      per_lane.push_back(embedder_.Embed(grouping, k, config_.features,
                                         adjacency_in_embedding));
      lane_embeddings.push_back(&per_lane.back());
    }
    embeddings = InterleaveLanes(lane_embeddings);
  } else {
    embeddings = InterleaveLanes(std::vector<const nn::Tensor*>(
        static_cast<std::size_t>(lanes), &fixed_embeddings_));
  }
  nn::Var group_embeddings = tape.Input(std::move(embeddings));
  if (learned && config_.use_bridge) {
    group_embeddings = tape.ConcatCols(
        group_embeddings, bridge_.Apply(tape, grouper_, grouper.probs,
                                        groupings));
  }

  const std::span<const std::int32_t> forced_devices =
      rng != nullptr ? std::span<const std::int32_t>()
                     : stored[0]->group_devices;
  PlacerRollout rollout;
  switch (config_.placer) {
    case PlacerKind::kSeq2Seq: {
      std::vector<std::span<const std::int32_t>> forced;
      for (const Sample* sample : stored) {
        forced.emplace_back(sample->group_devices);
      }
      rollout = seq_placer_.Run(tape, group_embeddings, lanes, rng, forced);
      break;
    }
    case PlacerKind::kGcn: {
      nn::Var adjacency = tape.Input(
          learned ? MakeGroupAdjacency(*graph_, groupings[0], k)
                  : fixed_adjacency_);
      rollout = gcn_placer_.Run(tape, group_embeddings, adjacency, rng,
                                forced_devices);
      break;
    }
    case PlacerKind::kFfn: {
      nn::Var logits = ffn_l2_.Apply(
          tape, tape.Tanh(ffn_l1_.Apply(tape, group_embeddings)));  // k×D
      CategoricalHead head = Categorical(tape, logits, rng, forced_devices);
      rollout = PlacerRollout{std::move(head.choices), head.log_prob,
                              head.entropy};
      break;
    }
  }
  out.devices = std::move(rollout.devices);

  if (learned) {
    out.logp = tape.Add(
        rollout.log_prob,
        tape.Scale(grouper_logps, static_cast<float>(grouper_weight_)));
    out.entropy = tape.Add(rollout.entropy, grouper.entropy);
    if (rng != nullptr) out.grouping = std::move(groupings[0]);
  } else {
    out.logp = rollout.log_prob;
    out.entropy = rollout.entropy;
  }
  return out;
}

Sample HierarchicalAgent::SampleDecision(support::Rng& rng) {
  nn::Tape tape;
  const bool learned = config_.grouper == GrouperKind::kLearned;
  PolicyOutput out = RunPolicy(
      tape,
      learned ? SamplingDistribution(tape) : CategoricalDistribution{},
      &rng, {});
  Sample sample;
  sample.group_devices = std::move(out.devices);
  sample.logp = static_cast<double>(tape.value(out.logp).at(0, 0));
  sample.num_decisions = static_cast<int>(sample.group_devices.size());
  if (learned) {
    sample.grouping = std::move(out.grouping);
    // The grouper term is scaled to ~k decisions.
    sample.num_decisions += config_.dims.num_groups;
  }
  return sample;
}

std::vector<PolicyAgent::Score> HierarchicalAgent::ScoreDecisions(
    nn::Tape& tape, std::span<const Sample* const> samples) {
  const CategoricalDistribution grouper =
      config_.grouper == GrouperKind::kLearned ? ScoringDistribution(tape)
                                               : CategoricalDistribution{};
  // The seq2seq placer scores the batch as one stacked rollout; the GCN
  // and FFN placers score one decision at a time.
  const std::size_t lanes =
      config_.placer == PlacerKind::kSeq2Seq ? samples.size() : 1;
  std::vector<Score> scores;
  for (std::size_t first = 0; first < samples.size(); first += lanes) {
    const PolicyOutput out =
        RunPolicy(tape, grouper, nullptr, samples.subspan(first, lanes));
    if (lanes == 1) {
      scores.push_back(Score{out.logp, out.entropy});
      continue;
    }
    for (int b = 0; b < static_cast<int>(lanes); ++b) {
      scores.push_back(Score{tape.SliceRows(out.logp, b, b + 1),
                             tape.SliceRows(out.entropy, b, b + 1)});
    }
  }
  return scores;
}

HierarchicalAgent::Score HierarchicalAgent::ScoreDecision(
    nn::Tape& tape, const Sample& sample) {
  const Sample* const one = &sample;
  return ScoreDecisions(tape, std::span(&one, 1))[0];
}

sim::Placement HierarchicalAgent::ToPlacement(const Sample& sample) const {
  // A fixed-grouper sample carries no grouping of its own (one stored by
  // an older checkpoint is ignored).
  return sim::Placement::FromGroups(
      plan_, *cluster_,
      config_.grouper == GrouperKind::kFixed ? config_.fixed_grouping
                                             : sample.grouping,
      sample.group_devices);
}

std::unique_ptr<HierarchicalAgent> MakeEagleAgent(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    const AgentDims& dims, std::uint64_t seed) {
  HierarchicalAgentConfig config;
  config.display_name = "EAGLE";
  config.dims = dims;
  config.grouper = GrouperKind::kLearned;
  config.placer = PlacerKind::kSeq2Seq;
  config.attention = AttentionVariant::kBefore;
  config.use_bridge = true;
  config.features = FeatureMode::kReconstructed;
  config.seed = seed;
  return std::make_unique<HierarchicalAgent>(graph, cluster,
                                             std::move(config));
}

std::unique_ptr<HierarchicalAgent> MakeHierarchicalPlanner(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    const AgentDims& dims, std::uint64_t seed) {
  HierarchicalAgentConfig config;
  config.display_name = "Hierarchical Planner";
  config.dims = dims;
  config.grouper = GrouperKind::kLearned;
  config.placer = PlacerKind::kSeq2Seq;
  config.attention = AttentionVariant::kAfter;
  config.use_bridge = false;
  config.features = FeatureMode::kRaw;
  config.seed = seed;
  return std::make_unique<HierarchicalAgent>(graph, cluster,
                                             std::move(config));
}

std::unique_ptr<HierarchicalAgent> MakeFixedGrouperAgent(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    graph::Grouping grouping, PlacerKind placer, AttentionVariant attention,
    const AgentDims& dims, std::uint64_t seed, const std::string& name) {
  HierarchicalAgentConfig config;
  config.display_name = name;
  config.dims = dims;
  config.grouper = GrouperKind::kFixed;
  config.fixed_grouping = std::move(grouping);
  config.placer = placer;
  config.attention = attention;
  config.use_bridge = false;
  config.features = FeatureMode::kReconstructed;
  config.seed = seed;
  return std::make_unique<HierarchicalAgent>(graph, cluster,
                                             std::move(config));
}

std::unique_ptr<HierarchicalAgent> MakePostAgent(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    int num_groups, std::uint64_t seed) {
  partition::MetisOptions metis;
  metis.num_parts = num_groups;
  metis.seed = seed;
  HierarchicalAgentConfig config;
  config.display_name = "Post";
  config.dims.num_groups = num_groups;
  config.grouper = GrouperKind::kFixed;
  config.fixed_grouping = partition::MetisPartition(graph, metis);
  config.placer = PlacerKind::kFfn;
  config.use_bridge = false;
  config.features = FeatureMode::kRaw;
  config.seed = seed;
  return std::make_unique<HierarchicalAgent>(graph, cluster,
                                             std::move(config));
}

}  // namespace eagle::core
