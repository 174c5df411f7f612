// Ablation bench (beyond the paper's tables): which of EAGLE's
// ingredients buys what? Starting from full EAGLE, each variant removes
// one design choice DESIGN.md calls out:
//
//   full EAGLE        bridge RNN + attention-before + reconstructed
//                     state vectors (PPO everywhere)
//   - bridge          grouper coupled to the placer only through the
//                     sampled grouping (HP-style coupling)
//   - reconstruction  raw HP-style state vectors
//   - attention-pos   attention applied after the decoder (Fig. 4b)
//   none (≈ HP+PPO)   all three removed
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

namespace {

struct Variant {
  const char* name;
  bool bridge;
  core::FeatureMode features;
  core::AttentionVariant attention;
};

rl::TrainResult RunVariant(const Variant& variant,
                           bench::BenchContext& context,
                           const BenchConfig& config) {
  core::HierarchicalAgentConfig agent_config;
  agent_config.display_name = variant.name;
  agent_config.dims = config.dims();
  agent_config.grouper = core::GrouperKind::kLearned;
  agent_config.placer = core::PlacerKind::kSeq2Seq;
  agent_config.attention = variant.attention;
  agent_config.use_bridge = variant.bridge;
  agent_config.features = variant.features;
  agent_config.seed = config.seed;
  core::HierarchicalAgent agent(context.graph, context.cluster,
                                std::move(agent_config));
  return bench::TrainOnBenchmark(agent, context, rl::Algorithm::kPpo,
                                 config);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("Ablation: EAGLE ingredients on/off");
  bench::AddCommonFlags(args, /*default_samples=*/220);
  if (!args.Parse(argc, argv)) return 0;
  BenchConfig config = bench::ReadCommonFlags(args);

  const Variant variants[] = {
      {"full EAGLE", true, core::FeatureMode::kReconstructed,
       core::AttentionVariant::kBefore},
      {"- bridge RNN", false, core::FeatureMode::kReconstructed,
       core::AttentionVariant::kBefore},
      {"- reconstruction", true, core::FeatureMode::kRaw,
       core::AttentionVariant::kBefore},
      {"- attention-before", true, core::FeatureMode::kReconstructed,
       core::AttentionVariant::kAfter},
      {"none (HP+PPO)", false, core::FeatureMode::kRaw,
       core::AttentionVariant::kAfter},
  };

  support::Table table(
      "ABLATION: per-step time (s) of the best placement per variant.");
  std::vector<std::string> header{"Variant"};
  for (auto benchmark : config.benchmarks) {
    header.push_back(models::BenchmarkName(benchmark));
  }
  table.SetHeader(std::move(header));
  std::vector<std::vector<std::string>> rows;
  for (const auto& variant : variants) {
    rows.push_back({variant.name});
  }
  for (auto benchmark : config.benchmarks) {
    for (std::size_t i = 0; i < std::size(variants); ++i) {
      auto context = bench::MakeContext(benchmark, &config);
      rows[i].push_back(
          bench::FormatResult(RunVariant(variants[i], context, config)));
    }
  }
  for (auto& row : rows) table.AddRow(std::move(row));
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "ablation");
  return bench::Finish(config);
}
