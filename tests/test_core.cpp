#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>

#include "core/bridge_rnn.h"
#include "core/categorical.h"
#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/expert_policies.h"
#include "core/gcn_placer.h"
#include "core/grouper_ffn.h"
#include "core/policy.h"
#include "core/seq2seq_placer.h"
#include "models/bert.h"
#include "models/gnmt.h"
#include "models/inception_v3.h"
#include "models/synthetic.h"
#include "models/zoo.h"
#include "partition/metis_like.h"
#include "rl/trainer.h"
#include "support/metrics.h"
#include "tests/arena_poison.h"
#include "tests/seq2seq_oracle.h"

namespace eagle::core {
namespace {

graph::OpGraph SmallGraph() {
  support::Rng rng(1);
  models::RandomDagConfig config;
  config.layers = 6;
  config.width = 5;
  config.cpu_only_fraction = 0.1;
  return models::BuildRandomDag(config, rng);
}

AgentDims SmallDims() {
  AgentDims dims;
  dims.num_groups = 8;
  dims.grouper_hidden = 8;
  dims.placer_hidden = 16;
  dims.attn_dim = 8;
  dims.bridge_hidden = 8;
  dims.device_embed_dim = 4;
  return dims;
}

TEST(Environment, PenaltyPositiveAndCacheWorks) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  PlacementEnvironment env(graph, cluster);
  EXPECT_GT(env.InvalidPenaltySeconds(), 0.0);
  const auto placement = sim::Placement::AllOnDevice(graph, cluster, 1);
  const auto r1 = env.Evaluate(placement, nullptr);
  const auto r2 = env.Evaluate(placement, nullptr);
  EXPECT_EQ(r1.true_per_step_seconds, r2.true_per_step_seconds);
  EXPECT_EQ(env.cache_hits(), 1);
  EXPECT_EQ(env.evaluations(), 2);
}

TEST(Environment, NoiseReappliedOnCacheHits) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  PlacementEnvironment env(graph, cluster);
  const auto placement = sim::Placement::AllOnDevice(graph, cluster, 1);
  support::Rng rng(2);
  const auto r1 = env.Evaluate(placement, &rng);
  const auto r2 = env.Evaluate(placement, &rng);
  EXPECT_NE(r1.per_step_seconds, r2.per_step_seconds);
  EXPECT_EQ(r1.true_per_step_seconds, r2.true_per_step_seconds);
}

// A frozen copy of the sequence each agent ran inline before they shared
// core::Categorical. One-row callers (the seq2seq decoder's steps) took
// the picked log-probability without the outer Sum.
CategoricalHead InlineSequence(nn::Tape& tape, nn::Var logits,
                               support::Rng* rng,
                               std::span<const std::int32_t> forced) {
  nn::Var logp = tape.LogSoftmax(logits);
  nn::Var probs = tape.Softmax(logits);
  const nn::Tensor& probs_value = tape.value(probs);
  const int rows = probs_value.rows();
  CategoricalHead head;
  for (int r = 0; r < rows; ++r) {
    head.choices.push_back(
        rng == nullptr ? forced[static_cast<std::size_t>(r)]
                       : static_cast<std::int32_t>(rng->NextFromProbs(
                             probs_value.row(r),
                             static_cast<std::size_t>(probs_value.cols()))));
  }
  nn::Var picked = tape.PickPerRow(
      logp, std::vector<int>(head.choices.begin(), head.choices.end()));
  head.log_prob = rows == 1 ? picked : tape.Sum(picked);
  head.entropy = tape.Scale(tape.Sum(tape.Mul(probs, logp)),
                            -1.0f / static_cast<float>(rows));
  return head;
}

struct HeadOutcome {
  std::vector<std::int32_t> choices;
  std::uint32_t log_prob_bits = 0;
  std::uint32_t entropy_bits = 0;
  nn::Tensor grad;  // of a loss mixing log_prob and entropy
};

// Runs `head_fn` on a fresh tape, sampling with a fixed seed when `forced`
// is empty, and back-propagates a loss mixing its two outputs.
HeadOutcome RunHead(decltype(&Categorical) head_fn, nn::ParamStore& store,
                    nn::Parameter* logits,
                    std::span<const std::int32_t> forced) {
  nn::Tape tape;
  support::Rng rng(18);
  const CategoricalHead head = head_fn(
      tape, tape.Param(logits), forced.empty() ? &rng : nullptr, forced);
  store.ZeroGrads();
  tape.Backward(tape.Add(tape.Scale(head.log_prob, 0.7f),
                         tape.Scale(head.entropy, -0.3f)));
  return HeadOutcome{
      head.choices,
      std::bit_cast<std::uint32_t>(tape.value(head.log_prob).at(0, 0)),
      std::bit_cast<std::uint32_t>(tape.value(head.entropy).at(0, 0)),
      logits->grad};
}

TEST(Categorical, MatchesTheInlineSequenceBitForBit) {
  for (const auto& [rows, cols] : {std::pair{37, 24}, std::pair{1, 5}}) {
    nn::ParamStore store;
    nn::Parameter* logits = store.Create("logits", rows, cols);
    support::Rng init_rng(17);
    nn::UniformInit(logits->value, -3.0f, 3.0f, init_rng);
    const HeadOutcome sampled = RunHead(Categorical, store, logits, {});
    for (std::span<const std::int32_t> forced :
         {std::span<const std::int32_t>{}, std::span(sampled.choices)}) {
      const HeadOutcome head = RunHead(Categorical, store, logits, forced);
      const HeadOutcome oracle =
          RunHead(InlineSequence, store, logits, forced);
      SCOPED_TRACE(::testing::Message() << rows << "x" << cols
                                        << (forced.empty() ? " sampled"
                                                           : " forced"));
      EXPECT_EQ(head.choices, oracle.choices);
      EXPECT_EQ(head.log_prob_bits, oracle.log_prob_bits);
      EXPECT_EQ(head.entropy_bits, oracle.entropy_bits);
      ASSERT_EQ(head.grad.size(), oracle.grad.size());
      EXPECT_EQ(std::memcmp(head.grad.data(), oracle.grad.data(),
                            static_cast<std::size_t>(head.grad.size()) *
                                sizeof(float)),
                0);
    }
  }
}

// CategoricalPerRow behind RunHead's interface.
CategoricalHead PerRowHead(nn::Tape& tape, nn::Var logits, support::Rng* rng,
                           std::span<const std::int32_t> forced) {
  CategoricalRows rows = CategoricalPerRow(tape, logits, rng, forced);
  return CategoricalHead{std::move(rows.choices), rows.log_probs,
                         rows.entropies, nn::Var{}};
}

// Each row of the per-row head is Categorical on that row alone: the same
// draw, log-prob, entropy and logits gradient, bit for bit.
TEST(Categorical, PerRowHeadIsCategoricalOnEachRow) {
  constexpr int kRows = 6;
  constexpr int kCols = 5;
  nn::ParamStore store;
  nn::Parameter* all = store.Create("all", kRows, kCols);
  support::Rng init_rng(19);
  nn::UniformInit(all->value, -3.0f, 3.0f, init_rng);
  nn::Tape tape;
  support::Rng rng(20);
  const CategoricalRows rows =
      CategoricalPerRow(tape, tape.Param(all), &rng, {});
  ASSERT_EQ(rows.choices.size(), static_cast<std::size_t>(kRows));
  for (int r = 0; r < kRows; ++r) {
    SCOPED_TRACE(::testing::Message() << "row " << r);
    nn::ParamStore one_store;
    nn::Parameter* one = one_store.Create("one", 1, kCols);
    std::copy(all->value.row(r), all->value.row(r) + kCols,
              one->value.data());
    EXPECT_EQ(RunHead(PerRowHead, one_store, one, {}).choices,
              RunHead(Categorical, one_store, one, {}).choices);
    const std::int32_t choice = rows.choices[static_cast<std::size_t>(r)];
    const HeadOutcome head =
        RunHead(PerRowHead, one_store, one, std::span(&choice, 1));
    const HeadOutcome want =
        RunHead(Categorical, one_store, one, std::span(&choice, 1));
    EXPECT_EQ(head.log_prob_bits, want.log_prob_bits);
    EXPECT_EQ(head.entropy_bits, want.entropy_bits);
    EXPECT_EQ(std::memcmp(head.grad.data(), want.grad.data(),
                          kCols * sizeof(float)),
              0);
    EXPECT_EQ(
        std::bit_cast<std::uint32_t>(tape.value(rows.log_probs).at(r, 0)),
        want.log_prob_bits);
    EXPECT_EQ(
        std::bit_cast<std::uint32_t>(tape.value(rows.entropies).at(r, 0)),
        want.entropy_bits);
  }
}

// Re-scored decisions can come from a checkpoint (--resume), so a stored
// decision of the wrong length or with an out-of-range device or group
// must be rejected, never read past: scored alone, scored as the second
// decision on a tape whose first built the learned grouper's shared
// distribution, and scored as the second lane of a batch.
TEST(Categorical, RejectsAForcedDecisionOfTheWrongLength) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto dims = SmallDims();
  partition::MetisOptions metis;
  metis.num_parts = dims.num_groups;
  std::vector<std::unique_ptr<HierarchicalAgent>> agents;
  agents.push_back(MakeEagleAgent(graph, cluster, dims, 13));
  agents.push_back(MakeHierarchicalPlanner(graph, cluster, dims, 13));
  agents.push_back(MakeFixedGrouperAgent(
      graph, cluster, partition::MetisPartition(graph, metis),
      PlacerKind::kGcn, AttentionVariant::kBefore, dims, 13, "gcn"));
  agents.push_back(MakePostAgent(graph, cluster, dims.num_groups, 13));

  support::Rng rng(14);
  for (auto& agent : agents) {
    const Sample sample = agent->SampleDecision(rng);
    std::vector<Sample> bad(2, sample);
    bad[0].group_devices.resize(sample.group_devices.size() / 2);
    bad[1].group_devices.back() = cluster.num_devices();
    if (agent->config().grouper == GrouperKind::kLearned) {
      bad.push_back(sample);
      bad.back().grouping.resize(sample.grouping.size() / 2);
      bad.push_back(sample);
      bad.back().grouping.back() = dims.num_groups;
    }
    for (const Sample& stored : bad) {
      nn::Tape alone;
      EXPECT_THROW(agent->ScoreDecision(alone, stored), std::logic_error)
          << agent->name();
      nn::Tape shared;
      agent->ScoreDecision(shared, sample);
      EXPECT_THROW(agent->ScoreDecision(shared, stored), std::logic_error)
          << agent->name();
      // And as one lane of a batch.
      nn::Tape batch;
      const Sample* const both[] = {&sample, &stored};
      EXPECT_THROW(agent->ScoreDecisions(batch, both), std::logic_error)
          << agent->name();
    }
  }

  // Neither or both of rng / forced is a misuse too.
  nn::Tape tape;
  nn::Var logits = tape.Input(nn::Tensor(2, 3));
  const std::vector<std::int32_t> choices{0, 1};
  EXPECT_THROW(Categorical(tape, logits, nullptr, {}), std::logic_error);
  EXPECT_THROW(Categorical(tape, logits, &rng, choices), std::logic_error);
}

TEST(GrouperFfn, SampleAndScoreConsistent) {
  auto graph = SmallGraph();
  nn::ParamStore store;
  support::Rng init_rng(3);
  GrouperFFN grouper(store, OpFeatureDim(), 8, 6, init_rng);
  const auto features = MakeOpFeatures(graph, FeatureMode::kReconstructed);

  support::Rng rng(4);
  nn::Tape tape1;
  const auto sampled = Categorical(
      tape1, grouper.Logits(tape1, tape1.Input(features)), &rng, {});
  EXPECT_EQ(static_cast<int>(sampled.choices.size()), graph.num_ops());

  nn::Tape tape2;
  const auto scored =
      Categorical(tape2, grouper.Logits(tape2, tape2.Input(features)),
                  nullptr, sampled.choices);
  EXPECT_FLOAT_EQ(tape1.value(sampled.log_prob).at(0, 0),
                  tape2.value(scored.log_prob).at(0, 0));
  // Entropy of a k-way categorical is at most log k.
  EXPECT_LE(tape1.value(sampled.entropy).at(0, 0),
            std::log(6.0f) + 1e-4f);
  EXPECT_GE(tape1.value(sampled.entropy).at(0, 0), 0.0f);
}

TEST(BridgeRnn, OutputShapeAndGradientPathToGrouper) {
  auto graph = SmallGraph();
  nn::ParamStore store;
  support::Rng init_rng(5);
  GrouperFFN grouper(store, OpFeatureDim(), 8, 6, init_rng);
  BridgeRnn bridge(store, 8, 4, init_rng);
  const auto features = MakeOpFeatures(graph, FeatureMode::kReconstructed);
  support::Rng rng(6);
  nn::Tape tape;
  const auto sampled = Categorical(
      tape, grouper.Logits(tape, tape.Input(features)), &rng, {});
  const std::vector<graph::Grouping> groupings{sampled.choices};
  nn::Var conditioning = bridge.Apply(tape, grouper, sampled.probs, groupings);
  EXPECT_EQ(tape.value(conditioning).rows(), 6);
  EXPECT_EQ(tape.value(conditioning).cols(), 4);
  // The EAGLE link: a loss on the bridge output reaches grouper params.
  store.ZeroGrads();
  tape.Backward(tape.Sum(conditioning));
  EXPECT_GT(nn::SquaredNorm(store.Find("grouper/l2/w")->grad), 0.0);
}

class PlacerVariants : public ::testing::TestWithParam<AttentionVariant> {};

TEST_P(PlacerVariants, RolloutAndScoringConsistent) {
  nn::ParamStore store;
  support::Rng init_rng(7);
  Seq2SeqPlacer placer(store, /*input_dim=*/10, /*hidden=*/12,
                       /*attn_dim=*/8, /*device_embed_dim=*/4,
                       /*num_devices=*/5, GetParam(), init_rng);
  support::Rng data_rng(8);
  nn::Tensor embeds(7, 10);
  nn::UniformInit(embeds, -1, 1, data_rng);

  support::Rng rng(9);
  nn::Tape tape1;
  const auto rollout =
      placer.Run(tape1, tape1.Input(embeds), /*lanes=*/1, &rng, {});
  ASSERT_EQ(rollout.devices.size(), 7u);
  for (auto d : rollout.devices) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 5);
  }
  nn::Tape tape2;
  const std::span<const std::int32_t> forced[] = {rollout.devices};
  const auto scored =
      placer.Run(tape2, tape2.Input(embeds), /*lanes=*/1, nullptr, forced);
  EXPECT_FLOAT_EQ(tape1.value(rollout.log_prob).at(0, 0),
                  tape2.value(scored.log_prob).at(0, 0));
  EXPECT_EQ(scored.devices, rollout.devices);
}

INSTANTIATE_TEST_SUITE_P(BeforeAndAfter, PlacerVariants,
                         ::testing::Values(AttentionVariant::kBefore,
                                           AttentionVariant::kAfter));

TEST(GcnPlacer, RolloutShapes) {
  nn::ParamStore store;
  support::Rng init_rng(10);
  GcnPlacer placer(store, 10, 12, 5, init_rng);
  support::Rng data_rng(11);
  nn::Tensor embeds(6, 10);
  nn::UniformInit(embeds, -1, 1, data_rng);
  nn::Tensor adj(6, 6, 1.0f / 6.0f);
  support::Rng rng(12);
  nn::Tape tape;
  const auto rollout = placer.Run(tape, tape.Input(embeds), tape.Input(adj),
                                  &rng, {});
  EXPECT_EQ(rollout.devices.size(), 6u);
  nn::Tape tape2;
  const auto scored = placer.Run(tape2, tape2.Input(embeds),
                                 tape2.Input(adj), nullptr, rollout.devices);
  EXPECT_FLOAT_EQ(tape.value(rollout.log_prob).at(0, 0),
                  tape2.value(scored.log_prob).at(0, 0));
}

// Every concrete agent must produce identical log-probabilities when
// scoring its own sampled decision — the invariant PPO depends on.
TEST(Agents, SampleScoreLogpConsistency) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto dims = SmallDims();

  std::vector<std::unique_ptr<PolicyAgent>> agents;
  agents.push_back(MakeEagleAgent(graph, cluster, dims, 13));
  agents.push_back(MakeHierarchicalPlanner(graph, cluster, dims, 13));
  partition::MetisOptions metis;
  metis.num_parts = dims.num_groups;
  agents.push_back(MakeFixedGrouperAgent(
      graph, cluster, partition::MetisPartition(graph, metis),
      PlacerKind::kSeq2Seq, AttentionVariant::kBefore, dims, 13, "metis"));
  agents.push_back(MakeFixedGrouperAgent(
      graph, cluster, partition::MetisPartition(graph, metis),
      PlacerKind::kGcn, AttentionVariant::kBefore, dims, 13, "gcn"));
  agents.push_back(MakePostAgent(graph, cluster, dims.num_groups, 13));

  support::Rng rng(14);
  for (auto& agent : agents) {
    const auto sample = agent->SampleDecision(rng);
    nn::Tape tape;
    const auto score = agent->ScoreDecision(tape, sample);
    EXPECT_EQ(sample.logp,
              static_cast<double>(tape.value(score.logp).at(0, 0)))
        << agent->name();
    // Entropy finite and non-negative.
    EXPECT_GE(tape.value(score.entropy).at(0, 0), 0.0f) << agent->name();
  }
}

std::uint32_t Bits(const nn::Tape& tape, nn::Var v) {
  return std::bit_cast<std::uint32_t>(tape.value(v).at(0, 0));
}

std::int64_t GrouperForwards() {
  return support::metrics::GetCounter("agent.grouper_forwards")->value();
}

// The learned groupers score every decision on one tape against one
// shared distribution. Each decision's log-prob and entropy stay bit for
// bit those of scoring it alone on a fresh tape; only the order in which
// the parameter gradients are summed changes.
TEST(Agents, ScoresOnOneTapeMatchScoresAlone) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto dims = SmallDims();
  std::vector<std::unique_ptr<HierarchicalAgent>> agents;
  agents.push_back(MakeEagleAgent(graph, cluster, dims, 13));
  agents.push_back(MakeHierarchicalPlanner(graph, cluster, dims, 13));
  for (auto& agent : agents) {
    SCOPED_TRACE(agent->name());
    support::Rng rng(21);
    std::vector<Sample> samples;
    for (int i = 0; i < 10; ++i) samples.push_back(agent->SampleDecision(rng));
    // Per-sample weights, as advantages give them.
    const auto loss = [](nn::Tape& tape, const PolicyAgent::Score& score,
                         int i) {
      return tape.Add(tape.Scale(score.logp, 0.1f * static_cast<float>(i - 4)),
                      tape.Scale(score.entropy, -0.01f));
    };
    nn::ParamStore& store = agent->params();

    store.ZeroGrads();
    std::vector<std::uint32_t> logp_bits;
    std::vector<std::uint32_t> entropy_bits;
    std::int64_t forwards = GrouperForwards();
    for (int i = 0; i < 10; ++i) {
      nn::Tape tape;
      const auto score =
          agent->ScoreDecision(tape, samples[static_cast<std::size_t>(i)]);
      logp_bits.push_back(Bits(tape, score.logp));
      entropy_bits.push_back(Bits(tape, score.entropy));
      tape.Backward(loss(tape, score, i));
    }
    EXPECT_EQ(GrouperForwards() - forwards, 10);
    std::vector<nn::Tensor> summed;
    for (const auto& p : store.params()) summed.push_back(p->grad);

    store.ZeroGrads();
    forwards = GrouperForwards();
    nn::Tape tape;
    nn::Var total;
    for (int i = 0; i < 10; ++i) {
      const auto s = static_cast<std::size_t>(i);
      const auto score = agent->ScoreDecision(tape, samples[s]);
      EXPECT_EQ(Bits(tape, score.logp), logp_bits[s]) << "sample " << i;
      EXPECT_EQ(Bits(tape, score.entropy), entropy_bits[s]) << "sample " << i;
      const nn::Var term = loss(tape, score, i);
      total = i == 0 ? term : tape.Add(total, term);
    }
    EXPECT_EQ(GrouperForwards() - forwards, 1);
    tape.Backward(total);

    for (std::size_t p = 0; p < summed.size(); ++p) {
      const nn::Tensor& want = summed[p];
      const nn::Tensor& got = store.params()[p]->grad;
      ASSERT_EQ(got.size(), want.size()) << store.params()[p]->name;
      float max_abs = 0.0f;
      for (std::int64_t j = 0; j < want.size(); ++j) {
        max_abs = std::max(max_abs, std::fabs(want.data()[j]));
      }
      for (std::int64_t j = 0; j < want.size(); ++j) {
        ASSERT_NEAR(got.data()[j], want.data()[j], 1e-5f * max_abs)
            << store.params()[p]->name << " entry " << j;
      }
    }
  }
}

// Sampling reuses the grouper distribution of its last forward while the
// grouper parameters' bytes are unchanged. After a write to any one of
// them, an agent with a filled cache samples exactly as a fresh agent
// with the same parameters does.
TEST(Agents, SamplingCacheFollowsGrouperParameterWrites) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto dims = SmallDims();
  using Factory = std::unique_ptr<HierarchicalAgent> (*)(
      const graph::OpGraph&, const sim::ClusterSpec&, const AgentDims&,
      std::uint64_t);
  for (Factory make : {Factory{MakeEagleAgent},
                       Factory{MakeHierarchicalPlanner}}) {
    for (const char* name : {"grouper/l1/w", "grouper/l1/b", "grouper/l2/w",
                             "grouper/l2/b"}) {
      auto cached = make(graph, cluster, dims, 13);
      auto fresh = make(graph, cluster, dims, 13);
      SCOPED_TRACE(::testing::Message() << cached->name() << " " << name);
      support::Rng warm(30);
      cached->SampleDecision(warm);
      // A cache hit runs no forward.
      std::int64_t forwards = GrouperForwards();
      cached->SampleDecision(warm);
      EXPECT_EQ(GrouperForwards(), forwards);

      for (auto* agent : {cached.get(), fresh.get()}) {
        nn::Tensor& value = agent->params().Find(name)->value;
        for (std::int64_t j = 0; j < value.size(); ++j) {
          value.data()[j] += 0.25f;
        }
      }
      forwards = GrouperForwards();
      support::Rng rng_cached(31);
      support::Rng rng_fresh(31);
      const Sample a = cached->SampleDecision(rng_cached);
      const Sample b = fresh->SampleDecision(rng_fresh);
      EXPECT_EQ(GrouperForwards() - forwards, 2);
      EXPECT_EQ(a.grouping, b.grouping);
      EXPECT_EQ(a.group_devices, b.group_devices);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.logp),
                std::bit_cast<std::uint64_t>(b.logp));
    }
  }
}

// One forward per parameter state: a 20-sample EAGLE run with PPO
// (minibatch 10, 4 epochs) samples two rounds (one forward each) and
// scores eight tapes (one forward each).
TEST(Agents, GrouperForwardsPerTrainingRun) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto agent = MakeEagleAgent(graph, cluster, SmallDims(), 13);
  PlacementEnvironment env(graph, cluster);
  rl::TrainerOptions options;
  options.algorithm = rl::Algorithm::kPpo;
  options.total_samples = 20;
  options.minibatch_size = 10;
  options.ppo.epochs = 4;
  const std::int64_t forwards = GrouperForwards();
  rl::TrainAgent(*agent, env, options);
  EXPECT_EQ(GrouperForwards() - forwards, 10);
}

// ---- the stacked placer against the per-sample oracle ----

// The seq2seq agents: EAGLE, Hierarchical Planner, and a fixed grouping
// with attention before and after (the bench's placer:before/after).
std::vector<std::unique_ptr<HierarchicalAgent>> Seq2SeqAgents(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster) {
  const auto dims = SmallDims();
  partition::MetisOptions metis;
  metis.num_parts = dims.num_groups;
  std::vector<std::unique_ptr<HierarchicalAgent>> agents;
  agents.push_back(MakeEagleAgent(graph, cluster, dims, 13));
  agents.push_back(MakeHierarchicalPlanner(graph, cluster, dims, 13));
  for (const auto variant :
       {AttentionVariant::kBefore, AttentionVariant::kAfter}) {
    agents.push_back(MakeFixedGrouperAgent(
        graph, cluster, partition::MetisPartition(graph, metis),
        PlacerKind::kSeq2Seq, variant, dims, 13,
        variant == AttentionVariant::kBefore ? "placer:before"
                                             : "placer:after"));
  }
  return agents;
}

bool SameBytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Per-sample loss weights, as advantages give them.
nn::Var LaneLoss(nn::Tape& tape, nn::Var logp, nn::Var entropy, int i) {
  return tape.Add(tape.Scale(logp, 0.1f * static_cast<float>(i - 4)),
                  tape.Scale(entropy, -0.01f));
}

// The oracle holds the agent's parameters, in the same order.
void ExpectSameParameters(nn::ParamStore& agent, nn::ParamStore& oracle) {
  ASSERT_EQ(agent.params().size(), oracle.params().size());
  for (std::size_t p = 0; p < agent.params().size(); ++p) {
    ASSERT_EQ(agent.params()[p]->name, oracle.params()[p]->name);
    ASSERT_TRUE(
        SameBytes(agent.params()[p]->value, oracle.params()[p]->value))
        << agent.params()[p]->name;
  }
}

TEST(Lanes, SamplingIsThePerSampleOracle) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  for (auto& agent : Seq2SeqAgents(graph, cluster)) {
    SCOPED_TRACE(agent->name());
    oracle::OracleAgent oracle(graph, cluster, agent->config());
    ExpectSameParameters(agent->params(), oracle.params());
    support::Rng rng(41);
    support::Rng oracle_rng(41);
    for (int i = 0; i < 5; ++i) {
      const Sample sample = agent->SampleDecision(rng);
      nn::Tape tape;
      const auto want = oracle.Sample(tape, oracle_rng);
      EXPECT_EQ(sample.grouping, want.grouping);
      EXPECT_EQ(sample.group_devices, want.devices);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sample.logp),
                std::bit_cast<std::uint64_t>(
                    static_cast<double>(tape.value(want.logp).at(0, 0))));
    }
  }
}

TEST(Lanes, ABatchOfOneIsThePerSampleOracleByteForByte) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  for (auto& agent : Seq2SeqAgents(graph, cluster)) {
    SCOPED_TRACE(agent->name());
    oracle::OracleAgent oracle(graph, cluster, agent->config());
    nn::ParamStore& store = agent->params();
    support::Rng rng(42);
    for (int i = 0; i < 5; ++i) {
      const Sample sample = agent->SampleDecision(rng);
      store.ZeroGrads();
      nn::Tape tape;
      const Sample* const one = &sample;
      const auto scores = agent->ScoreDecisions(tape, std::span(&one, 1));
      ASSERT_EQ(scores.size(), 1u);
      tape.Backward(LaneLoss(tape, scores[0].logp, scores[0].entropy, i));

      oracle.params().ZeroGrads();
      nn::Tape oracle_tape;
      const auto want = oracle.Score(
          oracle_tape,
          oracle.learned() ? oracle.Grouper(oracle_tape)
                           : CategoricalDistribution{},
          sample);
      oracle_tape.Backward(LaneLoss(oracle_tape, want.logp, want.entropy, i));

      EXPECT_EQ(Bits(tape, scores[0].logp), Bits(oracle_tape, want.logp));
      EXPECT_EQ(Bits(tape, scores[0].entropy),
                Bits(oracle_tape, want.entropy));
      for (std::size_t p = 0; p < store.params().size(); ++p) {
        EXPECT_TRUE(SameBytes(store.params()[p]->grad,
                              oracle.params().params()[p]->grad))
            << "sample " << i << " " << store.params()[p]->name;
      }
    }
  }
}

TEST(Lanes, EachLaneOfABatchIsItsSampleScoredAlone) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  constexpr int kBatch = 10;
  for (auto& agent : Seq2SeqAgents(graph, cluster)) {
    SCOPED_TRACE(agent->name());
    oracle::OracleAgent oracle(graph, cluster, agent->config());
    support::Rng rng(43);
    std::vector<Sample> samples;
    std::vector<const Sample*> batch;
    for (int i = 0; i < kBatch; ++i) {
      samples.push_back(agent->SampleDecision(rng));
    }
    for (const Sample& sample : samples) batch.push_back(&sample);

    // The oracle scores every sample on one tape against one grouper
    // distribution, as the per-sample path did.
    oracle.params().ZeroGrads();
    std::vector<std::uint32_t> logp_bits;
    std::vector<std::uint32_t> entropy_bits;
    {
      nn::Tape tape;
      const CategoricalDistribution grouper =
          oracle.learned() ? oracle.Grouper(tape) : CategoricalDistribution{};
      nn::Var total;
      for (int i = 0; i < kBatch; ++i) {
        const auto want =
            oracle.Score(tape, grouper, samples[static_cast<std::size_t>(i)]);
        logp_bits.push_back(Bits(tape, want.logp));
        entropy_bits.push_back(Bits(tape, want.entropy));
        const nn::Var term = LaneLoss(tape, want.logp, want.entropy, i);
        total = i == 0 ? term : tape.Add(total, term);
      }
      tape.Backward(total);
    }

    nn::ParamStore& store = agent->params();
    store.ZeroGrads();
    nn::Tape tape;
    const auto scores = agent->ScoreDecisions(tape, batch);
    ASSERT_EQ(scores.size(), batch.size());
    nn::Var total;
    for (int i = 0; i < kBatch; ++i) {
      const auto s = static_cast<std::size_t>(i);
      EXPECT_EQ(Bits(tape, scores[s].logp), logp_bits[s]) << "lane " << i;
      EXPECT_EQ(Bits(tape, scores[s].entropy), entropy_bits[s])
          << "lane " << i;
      const nn::Var term =
          LaneLoss(tape, scores[s].logp, scores[s].entropy, i);
      total = i == 0 ? term : tape.Add(total, term);
    }
    tape.Backward(total);

    // The lanes' gradients sum in another order.
    for (std::size_t p = 0; p < store.params().size(); ++p) {
      const nn::Tensor& want = oracle.params().params()[p]->grad;
      const nn::Tensor& got = store.params()[p]->grad;
      float max_abs = 0.0f;
      for (std::int64_t j = 0; j < want.size(); ++j) {
        max_abs = std::max(max_abs, std::fabs(want.data()[j]));
      }
      for (std::int64_t j = 0; j < want.size(); ++j) {
        ASSERT_NEAR(got.data()[j], want.data()[j], 1e-5f * max_abs)
            << store.params()[p]->name << " entry " << j;
      }
    }
  }
}

// Uninitialized outputs (Tensor::Uninitialized) must write every element
// before anything reads one: an EAGLE forward and backward on an arena
// whose recycled blocks hold NaN gives the bytes of one whose blocks
// hold what the first pass left.
TEST(Arena, NanFilledRecycledBlocksChangeNoEagleByte) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto agent = MakeEagleAgent(graph, cluster, SmallDims(), 13);
  support::Rng rng(45);
  std::vector<Sample> samples;
  std::vector<const Sample*> batch;
  for (int i = 0; i < 3; ++i) samples.push_back(agent->SampleDecision(rng));
  for (const Sample& sample : samples) batch.push_back(&sample);

  const auto pass = [&] {
    agent->params().ZeroGrads();
    nn::Tape tape;
    const auto scores = agent->ScoreDecisions(tape, batch);
    nn::Var total;
    std::vector<std::uint32_t> bits;
    for (int i = 0; i < 3; ++i) {
      const auto& score = scores[static_cast<std::size_t>(i)];
      bits.push_back(Bits(tape, score.logp));
      bits.push_back(Bits(tape, score.entropy));
      const nn::Var term = LaneLoss(tape, score.logp, score.entropy, i);
      total = i == 0 ? term : tape.Add(total, term);
    }
    tape.Backward(total);
    std::vector<nn::Tensor> grads;
    for (const auto& p : agent->params().params()) grads.push_back(p->grad);
    return std::pair(bits, grads);
  };
  const auto first = pass();
  EXPECT_GT(nn::arena_test::PoisonPooledBlocks(), 100);
  const auto second = pass();
  EXPECT_EQ(first.first, second.first);
  ASSERT_EQ(first.second.size(), second.second.size());
  for (std::size_t p = 0; p < first.second.size(); ++p) {
    EXPECT_TRUE(SameBytes(first.second[p], second.second[p]))
        << agent->params().params()[p]->name;
  }
}

// A fixed-grouper sample carries no grouping of its own: the agent holds
// it, and ToPlacement expands the sample's devices over it.
TEST(Agents, FixedGrouperSamplesCarryNoGrouping) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto post = MakePostAgent(graph, cluster, 8, 13);
  support::Rng rng(44);
  Sample sample = post->SampleDecision(rng);
  EXPECT_TRUE(sample.grouping.empty());
  const auto plan = sim::PlanNormalization(graph);
  const auto want = sim::Placement::FromGroups(
      plan, cluster, post->config().fixed_grouping, sample.group_devices);
  EXPECT_EQ(post->ToPlacement(sample).devices(), want.devices());
  // A grouping stored by an older checkpoint is ignored.
  sample.grouping.assign(static_cast<std::size_t>(graph.num_ops()), 0);
  EXPECT_EQ(post->ToPlacement(sample).devices(), want.devices());
}

TEST(Agents, ToPlacementRespectsConstraints) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto agent = MakeEagleAgent(graph, cluster, SmallDims(), 15);
  support::Rng rng(16);
  const auto sample = agent->SampleDecision(rng);
  const auto placement = agent->ToPlacement(sample);
  ASSERT_EQ(placement.num_ops(), graph.num_ops());
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    if (graph.op(i).cpu_only) {
      EXPECT_EQ(placement.device(i), cluster.FirstCpu());
    }
  }
}

TEST(Agents, FixedGrouperRequiresCoverage) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  EXPECT_THROW(MakeFixedGrouperAgent(graph, cluster, {0, 1, 2},
                                     PlacerKind::kSeq2Seq,
                                     AttentionVariant::kBefore, SmallDims(),
                                     1, "bad"),
               std::logic_error);
}

TEST(ExpertPolicies, SingleGpuPinsCpuOps) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto placement = SingleGpuPlacement(graph, cluster);
  bool has_gpu_op = false;
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    if (graph.op(i).cpu_only) {
      EXPECT_EQ(placement.device(i), cluster.FirstCpu());
    } else {
      has_gpu_op |= placement.device(i) == 1;
    }
  }
  EXPECT_TRUE(has_gpu_op);
}

TEST(ExpertPolicies, GpuLessClusterThrowsInsteadOfDividingByZero) {
  auto graph = SmallGraph();
  sim::ClusterSpec cluster;
  for (const char* name : {"/cpu:0", "/cpu:1"}) {
    sim::DeviceSpec cpu;
    cpu.name = name;
    cpu.kind = sim::DeviceKind::kCPU;
    cpu.memory_bytes = std::int64_t{1} << 34;
    cluster.AddDevice(cpu);
  }
  cluster.SetDefaultLink(sim::LinkSpec{});
  ASSERT_TRUE(cluster.Validate().ok());
  EXPECT_THROW(MetisBalancedPlacement(graph, cluster, 3), std::logic_error);
  EXPECT_THROW(SingleGpuPlacement(graph, cluster), std::logic_error);
}

TEST(ExpertPolicies, GnmtExpertUsesAllGpus) {
  models::GnmtConfig config;
  config.seq_len = 6;
  config.hidden = 16;
  config.vocab = 200;
  config.batch = 4;
  auto graph = models::BuildGNMT(config);
  const auto cluster = sim::MakeDefaultCluster();
  const auto placement =
      HumanExpertPlacement(models::Benchmark::kGNMT, graph, cluster);
  ASSERT_TRUE(placement.has_value());
  const auto counts = placement->OpsPerDevice(cluster);
  for (auto gpu : cluster.Gpus()) {
    EXPECT_GT(counts[static_cast<std::size_t>(gpu)], 0) << "gpu " << gpu;
  }
}

TEST(ExpertPolicies, BertHasNoExpert) {
  models::BertConfig config;
  config.layers = 1;
  config.seq_len = 8;
  config.batch = 1;
  auto graph = models::BuildBertBase(config);
  const auto cluster = sim::MakeDefaultCluster();
  EXPECT_FALSE(HumanExpertPlacement(models::Benchmark::kBertBase, graph,
                                    cluster)
                   .has_value());
}

TEST(ExpertPolicies, InceptionExpertEqualsSingleGpu) {
  models::InceptionConfig config;
  auto graph = models::BuildInceptionV3(config);
  const auto cluster = sim::MakeDefaultCluster();
  const auto expert =
      HumanExpertPlacement(models::Benchmark::kInceptionV3, graph, cluster);
  ASSERT_TRUE(expert.has_value());
  EXPECT_EQ(expert->Hash(), SingleGpuPlacement(graph, cluster).Hash());
}

TEST(RunConfig, PaperScaleMatchesPaper) {
  const auto dims = AgentDims::PaperScale();
  EXPECT_EQ(dims.num_groups, 256);
  EXPECT_EQ(dims.grouper_hidden, 64);
  EXPECT_EQ(dims.placer_hidden, 512);
  EXPECT_STREQ(AttentionVariantName(AttentionVariant::kBefore), "before");
  EXPECT_STREQ(AttentionVariantName(AttentionVariant::kAfter), "after");
}

}  // namespace
}  // namespace eagle::core
