// Baseline-comparison bench (reproduces the §III-D design discussion):
// EMA advantage baseline (Eq. 4) vs an A2C-style learned value network.
// The paper rejected the critic because "the value network does not have
// enough samples to be trained" — at a few hundred rewards per run the
// EMA baseline should find better placements faster.
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

int main(int argc, char** argv) {
  support::ArgParser args("Baselines: EMA vs learned value network");
  bench::AddCommonFlags(args, /*default_samples=*/220);
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  support::Table table(
      "BASELINES: per-step time (s) of the best placement found by EAGLE "
      "(PPO) with different advantage baselines.");
  table.SetHeader({"Models", "EMA (paper)", "Value network (A2C-style)"});
  for (auto benchmark : config.benchmarks) {
    std::vector<std::string> row{models::BenchmarkName(benchmark)};
    for (auto baseline :
         {rl::BaselineKind::kEma, rl::BaselineKind::kValueNetwork}) {
      auto context = bench::MakeContext(benchmark, &config);
      auto agent = core::MakeEagleAgent(context.graph, context.cluster,
                                        config.dims(), config.seed);
      const auto result = bench::TrainOnBenchmark(
          *agent, context, rl::Algorithm::kPpo, config, baseline);
      row.push_back(bench::FormatResult(result));
    }
    table.AddRow(std::move(row));
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "baselines");
  return bench::Finish(config);
}
