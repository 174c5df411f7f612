// Crash-safe training checkpoints: atomic snapshot files, full-state
// round-trips, the kill-and-resume guarantee (a checkpointed, killed and
// resumed run reproduces the uninterrupted run bit-compatibly), and the
// loader's contract on damaged files: every truncation, bit flip and
// inflated field comes back as a support::Status, never an exception.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/expert_policies.h"
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
  support::ByteWriter blob;
  nn::SaveParams(agent.params(), blob);
  return blob.bytes();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes;
  EXPECT_TRUE(support::ReadAll(in, &bytes).ok());
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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
  core::PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  for (int i = 0; i < 3; ++i) {
    env.Evaluate(core::SingleGpuPlacement(fix.graph, fix.cluster), nullptr);
  }

  const std::string dir = FreshDir("eagle_ckpt_roundtrip");
  const std::string path = CheckpointFilePath(dir, "trainer");
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, &env, data));

  auto restored_agent = fix.Agent(99);  // different init, same shapes
  nn::Adam restored_optimizer(restored_agent->params());
  core::PlacementEnvironment restored_env(fix.graph, fix.cluster,
                                          fix.EnvOptions());
  CheckpointData restored;
  const support::Status status =
      LoadCheckpoint(path, restored_agent->params(), restored_optimizer,
                     &restored_env, &restored);
  ASSERT_TRUE(status.ok()) << status.ToString();
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
  EXPECT_EQ(restored_env.evaluations(), 3);
  EXPECT_EQ(restored_env.cache_hits(), env.cache_hits());
  EXPECT_EQ(restored_env.attempts(), env.attempts());
  EXPECT_DOUBLE_EQ(restored_env.backoff_seconds_total(),
                   env.backoff_seconds_total());
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
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, nullptr,
                             data));
  {
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(7);
    io.put('1');  // "EAGLCKP2" -> "EAGLCKP1"
  }
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, agent->params(), optimizer, nullptr,
                             &restored)
                  .ok());
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
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, nullptr,
                             data));
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, agent->params(), optimizer, nullptr,
                             &restored)
                  .ok());
  ASSERT_EQ(restored.pool.size(), 1u);
  EXPECT_EQ(restored.pool[0].eval_stream, 0x0123456789abcdefULL);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoadMissingIsIoError) {
  Fixture fix;
  auto agent = fix.Agent(2);
  nn::Adam optimizer(agent->params());
  CheckpointData data;
  const std::string path = ::testing::TempDir() + "/eagle_no_such.ckpt";
  const support::Status status = LoadCheckpoint(
      path, agent->params(), optimizer, nullptr, &data);
  EXPECT_EQ(status.ToString(), path + ": [io] cannot open checkpoint");
}

TEST(Checkpoint, CorruptOrTruncatedFileFailsWithStatus) {
  Fixture fix;
  auto agent = fix.Agent(3);
  nn::Adam optimizer(agent->params());
  const std::string dir = FreshDir("eagle_ckpt_corrupt");
  std::filesystem::create_directories(dir);

  const std::string garbage = dir + "/garbage.ckpt";
  WriteBytes(garbage, "this is not a checkpoint");
  CheckpointData data;
  EXPECT_EQ(LoadCheckpoint(garbage, agent->params(), optimizer, nullptr,
                           &data)
                .ToString(),
            garbage + ": [syntax] byte 0: bad checkpoint magic");

  // A good checkpoint cut short mid-file must be rejected.
  const std::string path = CheckpointFilePath(dir, "trainer");
  CheckpointData full;
  full.result.total_samples = 5;
  ASSERT_TRUE(
      SaveCheckpoint(path, agent->params(), optimizer, nullptr, full));
  const std::string bytes = ReadBytes(path);
  WriteBytes(path, bytes.substr(0, bytes.size() / 2));
  const support::Status status = LoadCheckpoint(
      path, agent->params(), optimizer, nullptr, &data);
  EXPECT_EQ(status.code(), support::ErrorCode::kSyntax);
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.ToString();

  // Resuming from it fails the run with the loader's message.
  auto options = fix.Options(20);
  options.checkpoint_dir = dir;
  options.resume = true;
  core::PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  try {
    TrainAgent(*agent, env, options);
    ADD_FAILURE() << "resuming from a truncated checkpoint succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), status.ToString());
  }
  std::filesystem::remove_all(dir);
}

// The value-network critic is retired, but its section stays in the
// format: writers leave it empty, and a checkpoint whose critic section
// holds bytes names the file, the section's byte offset and the critic
// instead of resuming without that state.
TEST(Checkpoint, NonEmptyCriticSectionFailsWithStatus) {
  Fixture fix;
  const std::string dir = FreshDir("eagle_ckpt_critic");
  auto agent = fix.Agent(8);
  core::PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  auto options = fix.Options(10);
  options.checkpoint_dir = dir;
  TrainAgent(*agent, env, options);
  const std::string path = CheckpointFilePath(dir, "trainer");
  const std::string bytes = ReadBytes(path);

  // The critic section is the u64 length before the 8-byte end marker.
  const std::size_t at = bytes.size() - 16;
  std::uint64_t length = 0;
  std::memcpy(&length, &bytes[at], sizeof(length));
  ASSERT_EQ(length, 0u);
  const std::string critic(24, '\x5a');
  length = critic.size();
  std::string spliced = bytes.substr(0, at);
  spliced.append(reinterpret_cast<const char*>(&length), sizeof(length));
  spliced += critic;
  spliced += bytes.substr(bytes.size() - 8);
  WriteBytes(path, spliced);

  const std::string want =
      path + ": [syntax] byte " + std::to_string(at) +
      ": critic section holds 24 bytes; the value-network critic is "
      "retired and its section must be empty";
  auto restored_agent = fix.Agent(8);
  nn::Adam optimizer(restored_agent->params());
  CheckpointData data;
  EXPECT_EQ(LoadCheckpoint(path, restored_agent->params(), optimizer,
                           nullptr, &data)
                .ToString(),
            want);
  options.resume = true;
  core::PlacementEnvironment resumed_env(fix.graph, fix.cluster,
                                         fix.EnvOptions());
  try {
    TrainAgent(*restored_agent, resumed_env, options);
    ADD_FAILURE() << "resuming past a non-empty critic section succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), want);
  }
  std::filesystem::remove_all(dir);
}

// A small checkpoint with every section filled: two parameters with Adam
// slots, history, pool and batch samples, and the environment blob,
// restored through its own decoder.
struct SmallCheckpoint {
  Fixture fix;
  nn::ParamStore params;
  nn::Adam optimizer{params};
  core::PlacementEnvironment env{fix.graph, fix.cluster, fix.EnvOptions()};
  std::string path = ::testing::TempDir() + "/eagle_small.ckpt";

  SmallCheckpoint() {
    for (const auto& [name, rows] : {std::pair{"grouper/w", 2},
                                     std::pair{"placer/b", 1}}) {
      nn::Parameter* p = params.Create(name, rows, 3);
      p->value.Fill(0.25f);
      p->grad.Fill(0.5f);
    }
    optimizer.Step();
    env.Evaluate(core::SingleGpuPlacement(fix.graph, fix.cluster), nullptr);
    core::Sample sample;
    sample.grouping = {0, 1};
    sample.group_devices = {1, 0};
    sample.reward = -0.5;
    CheckpointData data;
    data.result.best_placement = sim::Placement::FromRaw({0, 1, 1});
    data.result.history.resize(3);
    data.pool = {sample, sample};
    data.batch = {sample};
    EXPECT_TRUE(SaveCheckpoint(path, params, optimizer, &env, data));
  }
  ~SmallCheckpoint() { std::filesystem::remove(path); }

  support::Status Load(const std::string& bytes) {
    WriteBytes(path, bytes);
    CheckpointData data;
    return LoadCheckpoint(path, params, optimizer, &env, &data);
  }
};

// Where a well-formed v2 checkpoint keeps its counts and lengths (u32
// counts and name lengths, u64 blob lengths) and its parameter-name
// bytes, found by walking the layout tabulated in docs/AGENTS.md.
struct Fields {
  std::set<std::size_t> lengths;
  std::set<std::size_t> name_bytes;
};

Fields WalkCheckpoint(const std::string& bytes) {
  Fields fields;
  support::ByteReader in(bytes, "walk");
  const auto count = [&](std::size_t min_bytes) {
    fields.lengths.insert(in.offset());
    return in.Count(min_bytes);
  };
  const auto name = [&] {
    fields.lengths.insert(in.offset());
    const std::size_t at = in.offset() + 4;
    const std::size_t size = in.Name().size();
    for (std::size_t i = 0; i < size; ++i) fields.name_bytes.insert(at + i);
  };
  // A parameter section and the Adam section after it.
  const auto params = [&] {
    in.Bytes(8);
    std::vector<std::size_t> sizes(count(12));
    for (std::size_t& size : sizes) {
      name();
      size = sizeof(float) * static_cast<std::size_t>(in.Get<std::int32_t>());
      size *= static_cast<std::size_t>(in.Get<std::int32_t>());
      in.Bytes(size);
    }
    in.Get<std::int64_t>();
    count(5);
    for (std::size_t size : sizes) {
      name();
      if (in.Get<std::uint8_t>() != 0) in.Bytes(2 * size);
    }
  };
  const auto i32_vector = [&] { in.Bytes(4 * count(4)); };
  const auto samples = [&] {
    for (std::uint32_t n = count(45); n > 0; --n) {
      i32_vector();
      i32_vector();
      in.Bytes(45);  // logp through advantage
    }
  };
  const auto blob_length = [&] {
    fields.lengths.insert(in.offset());
    return in.Get<std::uint64_t>();
  };
  in.Bytes(8);  // magic
  params();
  in.Bytes(32 + 8 + 1);         // RNG state, EMA baseline
  in.Bytes(1 + 3 * 8 + 2 * 4);  // result scalars
  i32_vector();                 // best placement
  in.Bytes(28 * count(28));     // history
  samples();                    // pool
  samples();                    // batch
  in.Bytes(4);                   // since_ce
  in.Bytes(blob_length());       // environment
  EXPECT_EQ(blob_length(), 0u);  // the retired critic, always empty
  in.Bytes(8);                   // end marker
  EXPECT_TRUE(in.ok() && in.at_end()) << in.status().ToString();
  return fields;
}

std::size_t ByteOffset(const support::Status& status) {
  EXPECT_EQ(status.message().rfind("byte ", 0), 0u) << status.ToString();
  return std::stoull(status.message().substr(5));
}

TEST(Checkpoint, EveryCorruptionFailsWithStatus) {
  SmallCheckpoint small;
  const std::string good = ReadBytes(small.path);
  ASSERT_TRUE(small.Load(good).ok());
  const Fields fields = WalkCheckpoint(good);
  ASSERT_EQ(fields.lengths.size(), 18u);

  int exceptions = 0;
  // Every failure names the file and a byte offset inside it.
  const auto load = [&](const std::string& bytes) {
    support::Status status;
    try {
      status = small.Load(bytes);
    } catch (const std::exception& e) {
      ++exceptions;
      ADD_FAILURE() << "load threw: " << e.what();
    }
    if (!status.ok()) {
      EXPECT_EQ(status.file(), small.path);
      EXPECT_LE(ByteOffset(status), bytes.size()) << status.ToString();
    }
    return status;
  };

  for (std::size_t size = 0; size < good.size(); ++size) {
    EXPECT_FALSE(load(good.substr(0, size)).ok()) << "truncated to " << size;
  }
  for (std::size_t at = 0; at < good.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = good;
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      const support::Status status = load(bytes);
      if (fields.name_bytes.count(at) != 0) {
        EXPECT_EQ(status.code(), support::ErrorCode::kSyntax)
            << "name byte " << at << " bit " << bit;
      }
    }
  }
  for (std::size_t at = 0; at + 4 <= good.size(); ++at) {
    std::string bytes = good;
    std::memset(&bytes[at], 0xFF, 4);
    const support::Status status = load(bytes);
    if (fields.lengths.count(at) != 0) {
      EXPECT_EQ(status.code(), support::ErrorCode::kResourceLimit)
          << status.ToString();
      EXPECT_EQ(ByteOffset(status), at) << status.ToString();
    }
  }
  EXPECT_EQ(exceptions, 0);
}

TEST(Checkpoint, HugeShapeIsRejectedWithoutAllocating) {
  SmallCheckpoint small;
  std::string bytes = ReadBytes(small.path);
  // Checkpoint magic (8), parameter magic (8), count (4), name length (4)
  // and "grouper/w" (9): the first parameter's rows sit at byte 33.
  const std::int32_t shape[2] = {1 << 30, 1 << 20};
  std::memcpy(&bytes[33], shape, sizeof(shape));
  support::Status status;
  EXPECT_NO_THROW(status = small.Load(bytes));
  EXPECT_EQ(status.ToString(),
            small.path +
                ": [syntax] byte 33: parameter 'grouper/w' is "
                "1073741824x1048576, expected 2x3");
}

}  // namespace
}  // namespace eagle::rl
