// Tests for the bench harness plumbing (flag parsing, context creation,
// fixed groupings, result formatting) — the shared code every paper
// table/figure is generated through.
#include <gtest/gtest.h>

#include <filesystem>

#include "bench/bench_common.h"
#include "nn/serialize.h"
#include "rl/checkpoint.h"

namespace eagle::bench {
namespace {

TEST(BenchFlags, DefaultsAndModelList) {
  support::ArgParser args("t");
  AddCommonFlags(args, 123);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.Parse(1, const_cast<char**>(argv)));
  const BenchConfig config = ReadCommonFlags(args);
  EXPECT_EQ(config.samples, 123);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_FALSE(config.full);
  ASSERT_EQ(config.benchmarks.size(), 3u);
  EXPECT_EQ(config.benchmarks[0], models::Benchmark::kInceptionV3);
  EXPECT_EQ(config.benchmarks[2], models::Benchmark::kBertBase);
}

TEST(BenchFlags, SubsetAndFull) {
  support::ArgParser args("t");
  AddCommonFlags(args, 100);
  const char* argv[] = {"prog", "--models=gnmt,bert", "--full",
                        "--samples=9", "--seed=42"};
  ASSERT_TRUE(args.Parse(5, const_cast<char**>(argv)));
  const BenchConfig config = ReadCommonFlags(args);
  ASSERT_EQ(config.benchmarks.size(), 2u);
  EXPECT_EQ(config.benchmarks[0], models::Benchmark::kGNMT);
  EXPECT_TRUE(config.full);
  EXPECT_EQ(config.dims().num_groups, 256);  // paper scale
  EXPECT_EQ(config.samples, 9);
  EXPECT_EQ(config.seed, 42u);
}

// Flag values are untrusted input: a --models or --faults value the
// parsers reject ends the bench with one stderr line and exit 2.
void ExpectFlagExitsTwo(const char* flag, const char* line) {
  SCOPED_TRACE(flag);
  support::ArgParser args("t");
  AddCommonFlags(args, 100);
  const char* argv[] = {"prog", flag};
  ASSERT_TRUE(args.Parse(2, const_cast<char**>(argv)));
  EXPECT_EXIT(ReadCommonFlags(args), ::testing::ExitedWithCode(2), line);
}

TEST(BenchFlagsDeathTest, UnknownModelExitsTwo) {
  ExpectFlagExitsTwo("--models=alexnet",
                     "^prog: --models: unknown benchmark 'alexnet' "
                     "\\(expected inception_v3, gnmt or bert\\)\n$");
}

TEST(BenchFlagsDeathTest, BadFaultsExitTwo) {
  ExpectFlagExitsTwo("--faults=abc",
                     "^prog: --faults: bad fault rate 'abc' \\(expected a "
                     "number in \\[0, 1\\]\\)\n$");
  ExpectFlagExitsTwo("--faults=seed=1e30",
                     "^prog: --faults: bad fault value '1e30' for seed "
                     "\\(expected a non-negative integer below 2\\^63\\)\n$");
}

TEST(BenchContext, BuildsEnvironmentPerBenchmark) {
  auto context = MakeContext(models::Benchmark::kInceptionV3);
  EXPECT_GT(context.graph.num_ops(), 0);
  EXPECT_EQ(context.cluster.num_devices(), 5);
  EXPECT_GT(context.env->InvalidPenaltySeconds(), 0.0);
}

TEST(BenchGroupings, MetisAndFluidValid) {
  auto context = MakeContext(models::Benchmark::kInceptionV3);
  for (int k : {8, 24}) {
    const auto metis = MetisGrouping(context.graph, k, 1);
    const auto fluid = FluidGrouping(context.graph, k, 1);
    graph::ValidateGrouping(context.graph, metis, k);
    graph::ValidateGrouping(context.graph, fluid, k);
  }
}

TEST(BenchFormat, ResultsAndEvals) {
  rl::TrainResult result;
  EXPECT_EQ(FormatResult(result), "OOM");  // no valid placement found
  result.found_valid = true;
  result.best_per_step_seconds = 1.2345;
  EXPECT_EQ(FormatResult(result), "1.234");

  sim::EvalResult eval;
  EXPECT_EQ(FormatEval(eval), "OOM");
  eval.valid = true;
  eval.true_per_step_seconds = 0.5;
  EXPECT_EQ(FormatEval(eval), "0.500");
}

TEST(BenchTrainerOptions, PaperHyperparameters) {
  const auto options =
      PaperTrainerOptions(rl::Algorithm::kPpoCe, 300, 9);
  EXPECT_EQ(options.minibatch_size, 10);
  EXPECT_DOUBLE_EQ(options.ppo.clip_epsilon, 0.3);
  EXPECT_EQ(options.ppo.epochs, 4);
  EXPECT_DOUBLE_EQ(options.ppo.entropy_coef, 0.01);
  EXPECT_EQ(options.ce.num_elites, 5);
  EXPECT_EQ(options.ce_interval, 50);
  EXPECT_DOUBLE_EQ(options.adam.lr, 0.01);
  EXPECT_DOUBLE_EQ(options.adam.clip_norm, 1.0);
  EXPECT_EQ(options.total_samples, 300);
  EXPECT_EQ(options.seed, 9u);
}

// Benches train several agents on one context. Each run must restore
// only its own environment state on --resume: two runs checkpointed at 10
// samples and resumed to 20 in a fresh context end exactly where two
// uninterrupted 20-sample runs do, fault stream included.
TEST(BenchTraining, ResumedRunsMatchUninterruptedOnes) {
  const std::string dir = ::testing::TempDir() + "/eagle_bench_resume";
  std::filesystem::remove_all(dir);
  BenchConfig config;
  config.cluster = sim::MakeDefaultCluster();
  config.faults = sim::FaultProfileFromString("0.2");
  struct Run {
    rl::TrainResult result;
    std::string params;
  };
  // Post with PPO, then Post with PPO+CE, on one context.
  const auto train_both = [&config](int samples) {
    config.samples = samples;
    auto context = MakeContext(models::Benchmark::kInceptionV3, &config);
    std::vector<Run> runs;
    for (auto algorithm : {rl::Algorithm::kPpo, rl::Algorithm::kPpoCe}) {
      auto agent = core::MakePostAgent(context.graph, context.cluster,
                                       /*num_groups=*/16, config.seed);
      Run run;
      run.result = TrainOnBenchmark(*agent, context, algorithm, config);
      support::ByteWriter params;
      nn::SaveParams(agent->params(), params);
      run.params = params.bytes();
      runs.push_back(std::move(run));
    }
    return runs;
  };
  const std::vector<Run> reference = train_both(20);
  config.checkpoint_dir = dir;
  train_both(10);
  config.resume = true;
  const std::vector<Run> resumed = train_both(20);

  for (std::size_t r = 0; r < reference.size(); ++r) {
    const rl::TrainResult& want = reference[r].result;
    const rl::TrainResult& got = resumed[r].result;
    EXPECT_EQ(resumed[r].params, reference[r].params) << "run " << r;
    EXPECT_EQ(got.invalid_samples, want.invalid_samples) << "run " << r;
    ASSERT_EQ(got.history.size(), want.history.size());
    for (std::size_t i = 0; i < want.history.size(); ++i) {
      EXPECT_EQ(got.history[i].virtual_hours, want.history[i].virtual_hours)
          << "run " << r << " sample " << i;
      EXPECT_EQ(got.history[i].per_step_seconds,
                want.history[i].per_step_seconds)
          << "run " << r << " sample " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

// A --resume checkpoint that does not load ends the bench with one line
// naming the file, the error code and the byte offset, and exit code 2.
TEST(BenchTrainingDeathTest, DamagedCheckpointExitsTwo) {
  const std::string dir = ::testing::TempDir() + "/eagle_bench_damaged";
  std::filesystem::remove_all(dir);
  BenchConfig config;
  config.cluster = sim::MakeDefaultCluster();
  config.samples = 10;
  config.checkpoint_dir = dir;
  const auto train = [&config]() {
    auto context = MakeContext(models::Benchmark::kInceptionV3, &config);
    auto agent = core::MakePostAgent(context.graph, context.cluster,
                                     /*num_groups=*/16, config.seed);
    TrainOnBenchmark(*agent, context, rl::Algorithm::kPpo, config);
  };
  train();
  const std::string path =
      rl::CheckpointFilePath(dir, "Inception-V3_Post_PPO");
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 0u);
  std::filesystem::resize_file(path, size / 2);

  config.resume = true;
  EXPECT_EXIT(train(), ::testing::ExitedWithCode(2),
              "Inception-V3_Post_PPO\\.ckpt: \\[syntax\\] byte [0-9]+: ");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eagle::bench
