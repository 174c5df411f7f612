// Deeper agent-behaviour tests: determinism, locality prior properties,
// entropy ranges, and configuration variants of the hierarchical agent.
#include <gtest/gtest.h>

#include <cmath>

#include "core/categorical.h"
#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/group_embedding.h"
#include "core/grouper_ffn.h"
#include "models/synthetic.h"
#include "partition/metis_like.h"
#include "rl/trainer.h"

namespace eagle::core {
namespace {

graph::OpGraph TestGraph() {
  support::Rng rng(3);
  models::RandomDagConfig config;
  config.layers = 8;
  config.width = 6;
  return models::BuildRandomDag(config, rng);
}

AgentDims TinyDims() {
  AgentDims dims;
  dims.num_groups = 6;
  dims.grouper_hidden = 8;
  dims.placer_hidden = 12;
  dims.attn_dim = 8;
  dims.bridge_hidden = 6;
  dims.device_embed_dim = 4;
  return dims;
}

TEST(LocalityPrior, ShapeAndBandStructure) {
  auto graph = TestGraph();
  const int k = 5;
  const auto prior = MakeLocalityPrior(graph, k);
  ASSERT_EQ(prior.rows(), graph.num_ops());
  ASSERT_EQ(prior.cols(), k);
  // First op prefers the first group, last op the last group.
  auto argmax_row = [&](int r) {
    int best = 0;
    for (int g = 1; g < k; ++g) {
      if (prior.at(r, g) > prior.at(r, best)) best = g;
    }
    return best;
  };
  EXPECT_EQ(argmax_row(0), 0);
  EXPECT_EQ(argmax_row(graph.num_ops() - 1), k - 1);
  // Every entry is a non-positive penalty, peaking at the band center.
  for (int g = 0; g < k; ++g) EXPECT_LE(prior.at(0, g), 0.0f);
}

TEST(LocalityPrior, ProducesContiguousInitialGroups) {
  // With the prior and an untrained FFN, sampled groupings should have a
  // far smaller cut than without the prior.
  auto graph = TestGraph();
  const auto wg = partition::BuildWeightedGraph(graph);
  const auto dims = TinyDims();
  nn::ParamStore store;
  support::Rng init_rng(5);
  const GrouperFFN grouper(store, OpFeatureDim(), dims.grouper_hidden,
                           dims.num_groups, init_rng);
  const nn::Tensor features =
      MakeOpFeatures(graph, FeatureMode::kReconstructed);
  const nn::Tensor prior = MakeLocalityPrior(graph, dims.num_groups);

  auto sample_cut = [&](const nn::Tensor* locality_prior) {
    support::Rng rng(6);
    std::int64_t total = 0;
    for (int i = 0; i < 5; ++i) {
      nn::Tape tape;
      const auto grouped = Categorical(
          tape, grouper.Logits(tape, tape.Input(features), locality_prior),
          &rng, {});
      total += partition::CutWeight(wg, grouped.choices);
    }
    return total;
  };
  EXPECT_LT(sample_cut(&prior), sample_cut(nullptr));
}

TEST(Agents, SamplingDeterministicPerSeed) {
  auto graph = TestGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto a1 = MakeEagleAgent(graph, cluster, TinyDims(), 11);
  auto a2 = MakeEagleAgent(graph, cluster, TinyDims(), 11);
  support::Rng rng1(12), rng2(12);
  const auto s1 = a1->SampleDecision(rng1);
  const auto s2 = a2->SampleDecision(rng2);
  EXPECT_EQ(s1.grouping, s2.grouping);
  EXPECT_EQ(s1.group_devices, s2.group_devices);
  EXPECT_DOUBLE_EQ(s1.logp, s2.logp);
}

TEST(Agents, DifferentSeedsDifferentPolicies) {
  auto graph = TestGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto a1 = MakeEagleAgent(graph, cluster, TinyDims(), 11);
  auto a2 = MakeEagleAgent(graph, cluster, TinyDims(), 99);
  support::Rng rng1(12), rng2(12);
  EXPECT_NE(a1->SampleDecision(rng1).logp, a2->SampleDecision(rng2).logp);
}

TEST(Agents, NumDecisionsSet) {
  auto graph = TestGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto dims = TinyDims();
  auto eagle = MakeEagleAgent(graph, cluster, dims, 1);
  support::Rng rng(2);
  const auto sample = eagle->SampleDecision(rng);
  // k placement decisions + k effective grouper decisions.
  EXPECT_EQ(sample.num_decisions, 2 * dims.num_groups);

  auto post = MakePostAgent(graph, cluster, 4, 1);
  const auto post_sample = post->SampleDecision(rng);
  EXPECT_EQ(post_sample.num_decisions, 4);
}

TEST(Agents, LogpIsLogProbability) {
  // log π of a sampled joint decision must be negative and finite.
  auto graph = TestGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto agent = MakeEagleAgent(graph, cluster, TinyDims(), 21);
  support::Rng rng(22);
  for (int i = 0; i < 5; ++i) {
    const auto sample = agent->SampleDecision(rng);
    EXPECT_LT(sample.logp, 0.0);
    EXPECT_TRUE(std::isfinite(sample.logp));
  }
}

TEST(Agents, GcnVariantEndToEnd) {
  auto graph = TestGraph();
  const auto cluster = sim::MakeDefaultCluster();
  partition::MetisOptions metis;
  metis.num_parts = 6;
  auto agent = MakeFixedGrouperAgent(
      graph, cluster, partition::MetisPartition(graph, metis),
      PlacerKind::kGcn, AttentionVariant::kBefore, TinyDims(), 31, "gcn");
  core::PlacementEnvironment env(graph, cluster);
  rl::TrainerOptions options;
  options.total_samples = 30;
  const auto result = rl::TrainAgent(*agent, env, options);
  EXPECT_TRUE(result.found_valid);
}

TEST(Agents, LearnedGcnPlacerWithLearnedGrouper) {
  // GCN placer + learned grouper: adjacency is rebuilt per sampled
  // grouping (a distinct code path from the fixed-grouper case).
  auto graph = TestGraph();
  const auto cluster = sim::MakeDefaultCluster();
  HierarchicalAgentConfig config;
  config.dims = TinyDims();
  config.placer = PlacerKind::kGcn;
  config.use_bridge = false;  // bridge requires seq2seq-style embeddings? no
                              // — it concatenates, works with GCN too, but
                              // keep this variant minimal.
  config.seed = 41;
  HierarchicalAgent agent(graph, cluster, std::move(config));
  support::Rng rng(42);
  const auto sample = agent.SampleDecision(rng);
  nn::Tape tape;
  const auto score = agent.ScoreDecision(tape, sample);
  EXPECT_EQ(sample.logp,
            static_cast<double>(tape.value(score.logp).at(0, 0)));
}

TEST(Agents, EntropyWithinCategoricalBounds) {
  auto graph = TestGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto agent = MakeEagleAgent(graph, cluster, TinyDims(), 51);
  support::Rng rng(52);
  const auto sample = agent->SampleDecision(rng);
  nn::Tape tape;
  const auto score = agent->ScoreDecision(tape, sample);
  const float entropy = tape.value(score.entropy).at(0, 0);
  // Placer entropy <= log(num devices), grouper entropy <= log(k);
  // the combined bonus is their sum.
  const float bound = std::log(5.0f) + std::log(6.0f) + 1e-3f;
  EXPECT_GE(entropy, 0.0f);
  EXPECT_LE(entropy, bound);
}

}  // namespace
}  // namespace eagle::core
