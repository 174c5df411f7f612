// Tests for the extension component: the Placeto-style incremental agent.
#include <gtest/gtest.h>

#include "core/placeto_agent.h"
#include "models/synthetic.h"
#include "models/zoo.h"
#include "partition/metis_like.h"

namespace eagle {
namespace {

TEST(Placeto, ImprovesOnParallelChains) {
  auto g = models::BuildParallelChains(4, 8, 1 << 18, 2e10);
  const auto cluster = sim::MakeDefaultCluster();
  core::PlacetoOptions options;
  options.episodes = 15;
  options.num_groups = 8;
  options.seed = 3;
  core::PlacetoAgent agent(g, cluster, options);
  const auto result = agent.Train();
  ASSERT_TRUE(result.found_valid);
  // Episodes start from all-on-one-GPU; spreading the chains must win.
  sim::ExecutionSimulator simulator(g, cluster);
  const auto single = simulator.Run(
      sim::Placement::AllOnDevice(g, cluster, cluster.Gpus().front()));
  EXPECT_LT(result.best_per_step_seconds, single.step_seconds);
  // One sim evaluation per group change plus one per episode start.
  EXPECT_EQ(result.simulator_evaluations,
            options.episodes * (options.num_groups + 1));
  ASSERT_EQ(result.episode_best.size(),
            static_cast<std::size_t>(options.episodes));
  // Best-so-far is monotone over episodes.
  for (std::size_t i = 1; i < result.episode_best.size(); ++i) {
    EXPECT_LE(result.episode_best[i], result.episode_best[i - 1]);
  }
}

TEST(Placeto, HandlesOomStartState) {
  // BERT-like memory pressure at tiny scale: the all-on-one-GPU start is
  // invalid; the agent must still find valid placements.
  models::ZooOptions zoo;
  zoo.reduced = true;
  auto g = models::BuildBenchmark(models::Benchmark::kBertBase, zoo);
  const auto cluster = sim::MakeScaledCluster(0.02).value();
  core::PlacetoOptions options;
  options.episodes = 8;
  options.num_groups = 12;
  core::PlacetoAgent agent(g, cluster, options);
  const auto result = agent.Train();
  EXPECT_TRUE(result.found_valid);
}

}  // namespace
}  // namespace eagle
