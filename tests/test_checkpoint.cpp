// Crash-safe training checkpoints: atomic snapshot files, full-state
// round-trips, and the kill-and-resume guarantee (a checkpointed, killed
// and resumed run reproduces the uninterrupted run bit-compatibly).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/eagle_agent.h"
#include "core/env.h"
#include "models/synthetic.h"
#include "nn/serialize.h"
#include "rl/checkpoint.h"
#include "rl/trainer.h"

namespace eagle::rl {
namespace {

core::AgentDims TinyDims() {
  core::AgentDims dims;
  dims.num_groups = 6;
  dims.grouper_hidden = 8;
  dims.placer_hidden = 16;
  dims.attn_dim = 8;
  dims.bridge_hidden = 8;
  dims.device_embed_dim = 4;
  return dims;
}

struct Fixture {
  graph::OpGraph graph = models::BuildParallelChains(2, 4, 1 << 14, 1e9);
  sim::ClusterSpec cluster = sim::MakeDefaultCluster();

  core::EnvironmentOptions EnvOptions() const {
    core::EnvironmentOptions options;
    options.faults = sim::FaultProfileFromString("0.15");
    return options;
  }

  std::unique_ptr<core::HierarchicalAgent> Agent(std::uint64_t seed) const {
    return core::MakeEagleAgent(graph, cluster, TinyDims(), seed);
  }

  TrainerOptions Options(int total_samples) const {
    TrainerOptions options;
    options.algorithm = Algorithm::kPpoCe;
    options.total_samples = total_samples;
    options.minibatch_size = 10;
    options.ce_interval = 15;
    options.checkpoint_interval = 10;
    options.seed = 5;
    return options;
  }
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ParamBlob(core::PolicyAgent& agent) {
  std::ostringstream blob;
  nn::SaveParams(agent.params(), blob);
  return blob.str();
}

TEST(Checkpoint, KillAndResumeMatchesUninterrupted) {
  Fixture fix;

  // Reference: 40 samples straight through, no checkpointing.
  auto ref_agent = fix.Agent(21);
  core::PlacementEnvironment ref_env(fix.graph, fix.cluster,
                                     fix.EnvOptions());
  const auto reference = TrainAgent(*ref_agent, ref_env, fix.Options(40));

  // "Crash" after 20 samples: the run ends with a final snapshot, exactly
  // what a kill between minibatches leaves behind.
  const std::string dir = FreshDir("eagle_resume_test");
  auto killed_agent = fix.Agent(21);
  core::PlacementEnvironment killed_env(fix.graph, fix.cluster,
                                        fix.EnvOptions());
  auto killed_options = fix.Options(20);
  killed_options.checkpoint_dir = dir;
  killed_options.checkpoint_name = "kill";
  const auto killed =
      TrainAgent(*killed_agent, killed_env, killed_options);
  EXPECT_EQ(killed.total_samples, 20);
  const std::string path = CheckpointFilePath(dir, "kill");
  EXPECT_TRUE(std::filesystem::exists(path));
  // Atomic write: no half-written temp file survives.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Resume in fresh objects (fresh process in real life) to 40 samples.
  auto resumed_agent = fix.Agent(21);
  core::PlacementEnvironment resumed_env(fix.graph, fix.cluster,
                                         fix.EnvOptions());
  auto resumed_options = fix.Options(40);
  resumed_options.checkpoint_dir = dir;
  resumed_options.checkpoint_name = "kill";
  resumed_options.resume = true;
  const auto resumed =
      TrainAgent(*resumed_agent, resumed_env, resumed_options);

  EXPECT_EQ(resumed.total_samples, reference.total_samples);
  EXPECT_EQ(resumed.invalid_samples, reference.invalid_samples);
  EXPECT_EQ(resumed.found_valid, reference.found_valid);
  EXPECT_DOUBLE_EQ(resumed.best_per_step_seconds,
                   reference.best_per_step_seconds);
  EXPECT_DOUBLE_EQ(resumed.total_virtual_hours,
                   reference.total_virtual_hours);
  EXPECT_DOUBLE_EQ(resumed.best_found_at_hours,
                   reference.best_found_at_hours);
  EXPECT_EQ(resumed.best_placement.devices(),
            reference.best_placement.devices());
  ASSERT_EQ(resumed.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.history[i].virtual_hours,
                     reference.history[i].virtual_hours);
    EXPECT_DOUBLE_EQ(resumed.history[i].best_so_far_seconds,
                     reference.history[i].best_so_far_seconds);
  }
  // Bit-compatible parameters, not just matching metrics.
  EXPECT_EQ(ParamBlob(*resumed_agent), ParamBlob(*ref_agent));

  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ResumeWithoutSnapshotStartsFresh) {
  Fixture fix;
  auto plain_agent = fix.Agent(31);
  core::PlacementEnvironment plain_env(fix.graph, fix.cluster,
                                       fix.EnvOptions());
  const auto plain = TrainAgent(*plain_agent, plain_env, fix.Options(20));

  const std::string dir = FreshDir("eagle_resume_empty");
  auto agent = fix.Agent(31);
  core::PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  auto options = fix.Options(20);
  options.checkpoint_dir = dir;
  options.resume = true;  // nothing there yet: falls back to fresh start
  const auto result = TrainAgent(*agent, env, options);
  EXPECT_EQ(result.total_samples, plain.total_samples);
  EXPECT_DOUBLE_EQ(result.best_per_step_seconds,
                   plain.best_per_step_seconds);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, DataRoundTrip) {
  Fixture fix;
  auto agent = fix.Agent(1);
  nn::Adam optimizer(agent->params());

  CheckpointData data;
  data.result.found_valid = true;
  data.result.best_per_step_seconds = 0.5;
  data.result.best_found_at_hours = 1.25;
  data.result.total_virtual_hours = 2.5;
  data.result.invalid_samples = 3;
  data.result.total_samples = 7;
  data.result.best_placement =
      sim::Placement::FromRaw({1, 2, 1, 3, 0, 2});
  HistoryPoint point;
  point.sample_index = 7;
  point.virtual_hours = 2.5;
  point.per_step_seconds = 0.6;
  point.best_so_far_seconds = 0.5;
  data.result.history = {point};
  data.rng_state = {11, 22, 33, 44};
  data.baseline_value = -0.75;
  data.baseline_initialized = true;
  core::Sample sample;
  sample.grouping = {0, 1, 1};
  sample.group_devices = {2, 4};
  sample.logp = -1.5;
  sample.num_decisions = 4;
  sample.valid = true;
  sample.per_step_seconds = 0.9;
  sample.reward = -0.7;
  sample.advantage = 0.1;
  data.pool = {sample};
  data.batch = {sample, sample};
  data.since_ce = 3;
  data.env_state = "opaque environment blob";

  const std::string dir = FreshDir("eagle_ckpt_roundtrip");
  const std::string path = CheckpointFilePath(dir, "trainer");
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, data));

  auto restored_agent = fix.Agent(99);  // different init, same shapes
  nn::Adam restored_optimizer(restored_agent->params());
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, restored_agent->params(),
                             restored_optimizer, &restored));
  EXPECT_EQ(ParamBlob(*restored_agent), ParamBlob(*agent));
  EXPECT_EQ(restored.result.total_samples, 7);
  EXPECT_EQ(restored.result.invalid_samples, 3);
  EXPECT_TRUE(restored.result.found_valid);
  EXPECT_DOUBLE_EQ(restored.result.best_per_step_seconds, 0.5);
  EXPECT_DOUBLE_EQ(restored.result.total_virtual_hours, 2.5);
  EXPECT_EQ(restored.result.best_placement.devices(),
            data.result.best_placement.devices());
  ASSERT_EQ(restored.result.history.size(), 1u);
  EXPECT_DOUBLE_EQ(restored.result.history[0].per_step_seconds, 0.6);
  EXPECT_EQ(restored.rng_state, data.rng_state);
  EXPECT_DOUBLE_EQ(restored.baseline_value, -0.75);
  EXPECT_TRUE(restored.baseline_initialized);
  ASSERT_EQ(restored.pool.size(), 1u);
  EXPECT_EQ(restored.pool[0].grouping, sample.grouping);
  EXPECT_EQ(restored.pool[0].group_devices, sample.group_devices);
  EXPECT_DOUBLE_EQ(restored.pool[0].logp, -1.5);
  EXPECT_EQ(restored.pool[0].num_decisions, 4);
  EXPECT_TRUE(restored.pool[0].valid);
  EXPECT_DOUBLE_EQ(restored.pool[0].reward, -0.7);
  EXPECT_DOUBLE_EQ(restored.pool[0].advantage, 0.1);
  ASSERT_EQ(restored.batch.size(), 2u);
  EXPECT_DOUBLE_EQ(restored.batch[1].per_step_seconds, 0.9);
  EXPECT_EQ(restored.since_ce, 3);
  EXPECT_EQ(restored.env_state, "opaque environment blob");
  EXPECT_TRUE(restored.critic_state.empty());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, V1MagicStillLoads) {
  // The v2 format added Sample::eval_stream; a checkpoint with no stored
  // samples is byte-identical to v1 apart from the magic, so rewriting
  // the version byte yields a faithful v1 file the reader must accept.
  Fixture fix;
  auto agent = fix.Agent(4);
  nn::Adam optimizer(agent->params());
  CheckpointData data;
  data.result.total_samples = 12;
  data.rng_state = {1, 2, 3, 4};

  const std::string dir = FreshDir("eagle_ckpt_v1");
  const std::string path = CheckpointFilePath(dir, "trainer");
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, data));
  {
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(7);
    io.put('1');  // "EAGLCKP2" -> "EAGLCKP1"
  }
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, agent->params(), optimizer, &restored));
  EXPECT_EQ(restored.result.total_samples, 12);
  EXPECT_EQ(restored.rng_state, data.rng_state);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SampleEvalStreamRoundTrips) {
  Fixture fix;
  auto agent = fix.Agent(5);
  nn::Adam optimizer(agent->params());
  CheckpointData data;
  core::Sample sample;
  sample.grouping = {0, 1};
  sample.group_devices = {2, 3};
  sample.eval_stream = 0x0123456789abcdefULL;
  data.pool = {sample};

  const std::string dir = FreshDir("eagle_ckpt_stream");
  const std::string path = CheckpointFilePath(dir, "trainer");
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, data));
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, agent->params(), optimizer, &restored));
  ASSERT_EQ(restored.pool.size(), 1u);
  EXPECT_EQ(restored.pool[0].eval_stream, 0x0123456789abcdefULL);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoadMissingReturnsFalse) {
  Fixture fix;
  auto agent = fix.Agent(2);
  nn::Adam optimizer(agent->params());
  CheckpointData data;
  EXPECT_FALSE(LoadCheckpoint(::testing::TempDir() + "/eagle_no_such.ckpt",
                              agent->params(), optimizer, &data));
}

TEST(Checkpoint, CorruptOrTruncatedFileThrows) {
  Fixture fix;
  auto agent = fix.Agent(3);
  nn::Adam optimizer(agent->params());
  const std::string dir = FreshDir("eagle_ckpt_corrupt");
  std::filesystem::create_directories(dir);

  const std::string garbage = dir + "/garbage.ckpt";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a checkpoint";
  }
  CheckpointData data;
  EXPECT_THROW(LoadCheckpoint(garbage, agent->params(), optimizer, &data),
               std::logic_error);

  // A good checkpoint cut short mid-file must be rejected, never
  // half-applied silently.
  const std::string path = CheckpointFilePath(dir, "trainer");
  CheckpointData full;
  full.result.total_samples = 5;
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, full));
  std::ifstream in(path, std::ios::binary);
  std::stringstream contents;
  contents << in.rdbuf();
  in.close();
  const std::string bytes = contents.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(LoadCheckpoint(path, agent->params(), optimizer, &data),
               std::logic_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eagle::rl
