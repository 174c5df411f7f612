#include <gtest/gtest.h>

#include <cmath>

#include "core/categorical.h"
#include "core/policy.h"
#include "models/synthetic.h"
#include "rl/cross_entropy.h"
#include "rl/ppo.h"
#include "rl/reinforce.h"
#include "rl/reward.h"
#include "rl/trainer.h"

namespace eagle::rl {
namespace {

// A tiny two-op policy over the default 5-device cluster: logits are a raw
// parameter matrix, one categorical per op. Serves as the minimal
// PolicyAgent for algorithm and trainer tests.
class StubAgent : public core::PolicyAgent {
 public:
  StubAgent(const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
            std::uint64_t seed)
      : graph_(&graph), cluster_(&cluster) {
    logits_ = store_.Create("logits", graph.num_ops(),
                            cluster.num_devices());
    support::Rng rng(seed);
    nn::UniformInit(logits_->value, -0.01f, 0.01f, rng);
  }

  core::Sample SampleDecision(support::Rng& rng) override {
    nn::Tape tape;
    core::CategoricalHead head =
        core::Categorical(tape, tape.Param(logits_), &rng, {});
    core::Sample sample;
    for (int i = 0; i < graph_->num_ops(); ++i) {
      sample.grouping.push_back(i);  // one op per group
    }
    sample.group_devices = std::move(head.choices);
    sample.logp = tape.value(head.log_prob).at(0, 0);
    return sample;
  }

  Score ScoreDecision(nn::Tape& tape, const core::Sample& sample) override {
    core::CategoricalHead head = core::Categorical(
        tape, tape.Param(logits_), nullptr, sample.group_devices);
    return Score{head.log_prob, head.entropy};
  }

  sim::Placement ToPlacement(const core::Sample& sample) const override {
    std::vector<sim::DeviceId> devices(sample.group_devices.begin(),
                                       sample.group_devices.end());
    sim::Placement placement(*graph_, std::move(devices));
    placement.Normalize(*graph_, *cluster_);
    return placement;
  }

  nn::ParamStore& params() override { return store_; }
  const char* name() const override { return "stub"; }

  float Probability(int op, int device) const {
    nn::Tape tape;
    nn::Var probs = tape.Softmax(
        const_cast<StubAgent*>(this)->MakeLogitsVar(tape));
    return tape.value(probs).at(op, device);
  }

 private:
  nn::Var MakeLogitsVar(nn::Tape& tape) { return tape.Param(logits_); }

  const graph::OpGraph* graph_;
  const sim::ClusterSpec* cluster_;
  nn::ParamStore store_;
  nn::Parameter* logits_;
};

// Environment rewarding device 1 for every op; device 4 is "OOM".
class StubEnv : public core::Environment {
 public:
  sim::EvalResult Evaluate(const sim::Placement& placement,
                           support::Rng*) override {
    sim::EvalResult result;
    result.measurement_cost_seconds = 60.0;
    bool oom = false;
    double time = 1.0;
    for (int i = 0; i < placement.num_ops(); ++i) {
      if (placement.device(i) == 4) oom = true;
      if (placement.device(i) != 1) time += 1.0;
    }
    if (oom) {
      result.valid = false;
      return result;
    }
    result.valid = true;
    result.per_step_seconds = time;
    result.true_per_step_seconds = time;
    return result;
  }
  double InvalidPenaltySeconds() const override { return 100.0; }
};

graph::OpGraph TinyGraph() { return models::BuildChain(1, 16, 1e6); }

TEST(Reward, NegativeSqrt) {
  sim::EvalResult eval;
  eval.valid = true;
  eval.per_step_seconds = 4.0;
  EXPECT_DOUBLE_EQ(ComputeReward(eval, {100.0}), -2.0);
}

TEST(Reward, PenaltyForInvalid) {
  sim::EvalResult eval;
  eval.valid = false;
  EXPECT_DOUBLE_EQ(ComputeReward(eval, {25.0}), -5.0);
}

TEST(Baseline, EmaTracksRewards) {
  rl::EmaBaseline baseline(0.5);
  EXPECT_DOUBLE_EQ(baseline.AdvantageAndUpdate(10.0), 0.0);  // seeds
  EXPECT_DOUBLE_EQ(baseline.value(), 10.0);
  // Advantage uses baseline BEFORE update.
  EXPECT_DOUBLE_EQ(baseline.AdvantageAndUpdate(20.0), 10.0);
  EXPECT_DOUBLE_EQ(baseline.value(), 15.0);
}

TEST(CrossEntropy, SelectsTopValidByReward) {
  std::vector<core::Sample> pool(5);
  pool[0].valid = true;
  pool[0].reward = -3.0;
  pool[1].valid = false;
  pool[1].reward = 100.0;  // invalid: excluded even with high reward
  pool[2].valid = true;
  pool[2].reward = -1.0;
  pool[3].valid = true;
  pool[3].reward = -2.0;
  pool[4].valid = true;
  pool[4].reward = -5.0;
  const auto elites = SelectElites(pool, 2);
  ASSERT_EQ(elites.size(), 2u);
  EXPECT_EQ(elites[0], 2u);
  EXPECT_EQ(elites[1], 3u);
}

TEST(CrossEntropy, EmptyPoolNoop) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 1);
  nn::Adam adam(agent.params());
  EXPECT_EQ(CrossEntropyUpdate(agent, adam, {}, {}), 0);
}

TEST(Reinforce, MovesPolicyTowardAdvantage) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 2);
  nn::Adam adam(agent.params());
  // A batch where choosing device 1 for all ops had positive advantage.
  core::Sample good;
  good.grouping = {0, 1};
  good.group_devices = {1, 1};
  good.advantage = 1.0;
  const float before = agent.Probability(0, 1);
  for (int i = 0; i < 10; ++i) {
    ReinforceUpdate(agent, adam, {good}, {});
  }
  EXPECT_GT(agent.Probability(0, 1), before);
}

TEST(Ppo, MovesPolicyAndClipsRatio) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 3);
  nn::Adam adam(agent.params());
  core::Sample good;
  good.grouping = {0, 1};
  good.group_devices = {1, 1};
  good.advantage = 1.0;
  // logp_old ≈ uniform over 5 devices for 2 ops.
  good.logp = 2.0 * std::log(1.0 / 5.0);
  const float before = agent.Probability(0, 1);
  PpoOptions options;
  const auto stats = PpoUpdate(agent, adam, {good}, options);
  EXPECT_GT(agent.Probability(0, 1), before);
  // After clip-region training the realized ratio stays near 1+ε.
  EXPECT_LE(stats.mean_ratio_last, (1.0 + options.clip_epsilon) * 1.5);
  EXPECT_GT(stats.grad_norm_last, 0.0);
}

TEST(Ppo, NegativeAdvantageReducesProbability) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 4);
  nn::Adam adam(agent.params());
  core::Sample bad;
  bad.grouping = {0, 1};
  bad.group_devices = {2, 2};
  bad.advantage = -1.0;
  bad.logp = 2.0 * std::log(1.0 / 5.0);
  const float before = agent.Probability(0, 2);
  PpoUpdate(agent, adam, {bad}, {});
  EXPECT_LT(agent.Probability(0, 2), before);
}

TEST(Ppo, DecisionNormalizationKeepsRatiosMeaningful) {
  // With a joint logp over many decisions, an unnormalized ratio would be
  // exp(large) and saturate the clip; normalized by num_decisions the
  // realized mean ratio stays near 1.
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 21);
  nn::Adam adam(agent.params());
  support::Rng rng(22);
  core::Sample sample = agent.SampleDecision(rng);
  sample.advantage = 1.0;
  sample.logp -= 50.0;          // pretend the sampling policy was far away
  sample.num_decisions = 100;   // ...across 100 decisions
  PpoOptions options;
  const auto stats = PpoUpdate(agent, adam, {sample}, options);
  EXPECT_GT(stats.mean_ratio_last, 0.5);
  EXPECT_LT(stats.mean_ratio_last, 5.0);

  // Without normalization the same sample saturates at the clamp bound.
  StubAgent agent2(graph, cluster, 21);
  nn::Adam adam2(agent2.params());
  options.normalize_by_decisions = false;
  const auto stats2 = PpoUpdate(agent2, adam2, {sample}, options);
  EXPECT_GT(stats2.mean_ratio_last, 100.0);
}

TEST(Trainer, LearnsStubEnvironment) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 5);
  StubEnv env;
  TrainerOptions options;
  options.total_samples = 200;
  options.seed = 6;
  const auto result = TrainAgent(agent, env, options);
  EXPECT_TRUE(result.found_valid);
  // Optimal step time is 1.0 (all ops on device 1).
  EXPECT_NEAR(result.best_per_step_seconds, 1.0, 1e-9);
  EXPECT_EQ(result.total_samples, 200);
  // Virtual clock: 200 samples x 60 s.
  EXPECT_NEAR(result.total_virtual_hours, 200 * 60.0 / 3600.0, 1e-9);
}

TEST(Trainer, HistoryBestMonotone) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 7);
  StubEnv env;
  TrainerOptions options;
  options.total_samples = 60;
  const auto result = TrainAgent(agent, env, options);
  ASSERT_EQ(result.history.size(), 60u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].best_so_far_seconds,
              result.history[i - 1].best_so_far_seconds);
    EXPECT_GE(result.history[i].virtual_hours,
              result.history[i - 1].virtual_hours);
  }
}

TEST(Trainer, CountsInvalidSamples) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 8);
  StubEnv env;
  TrainerOptions options;
  options.total_samples = 100;
  options.seed = 9;
  const auto result = TrainAgent(agent, env, options);
  // Device 4 is sampled sometimes early on -> some invalid samples.
  EXPECT_GT(result.invalid_samples, 0);
  EXPECT_LT(result.invalid_samples, 100);
}

TEST(Trainer, VirtualBudgetStopsEarly) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubAgent agent(graph, cluster, 10);
  StubEnv env;
  TrainerOptions options;
  options.total_samples = 1000;
  options.max_virtual_hours = 0.5;  // 30 samples x 60 s = 0.5 h
  const auto result = TrainAgent(agent, env, options);
  EXPECT_LE(result.total_samples, 31);
}

TEST(Trainer, DeterministicForSeed) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubEnv env;
  TrainerOptions options;
  options.total_samples = 80;
  options.seed = 11;
  StubAgent agent1(graph, cluster, 12);
  const auto r1 = TrainAgent(agent1, env, options);
  StubAgent agent2(graph, cluster, 12);
  const auto r2 = TrainAgent(agent2, env, options);
  EXPECT_EQ(r1.best_per_step_seconds, r2.best_per_step_seconds);
  EXPECT_EQ(r1.invalid_samples, r2.invalid_samples);
}

TEST(Trainer, AllAlgorithmsRun) {
  auto graph = TinyGraph();
  const auto cluster = sim::MakeDefaultCluster();
  StubEnv env;
  for (auto algorithm :
       {Algorithm::kReinforce, Algorithm::kPpo, Algorithm::kPpoCe}) {
    StubAgent agent(graph, cluster, 13);
    TrainerOptions options;
    options.algorithm = algorithm;
    options.total_samples = 60;
    options.ce_interval = 20;
    const auto result = TrainAgent(agent, env, options);
    EXPECT_TRUE(result.found_valid) << AlgorithmName(algorithm);
    EXPECT_LT(result.best_per_step_seconds, 3.0 + 1e-9)
        << AlgorithmName(algorithm);
  }
}

TEST(Trainer, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kPpo), "PPO");
  EXPECT_STREQ(AlgorithmName(Algorithm::kPpoCe), "PPO+CE");
  EXPECT_STREQ(AlgorithmName(Algorithm::kReinforce), "REINFORCE");
}

}  // namespace
}  // namespace eagle::rl
