// Table I reproduction: per-step time of placements found by the
// hierarchical model with different groupers (learned feed-forward vs
// METIS vs fluid communities / "Networkx").
//
// All three rows share the same placer (seq2seq with attention-after, as
// in the Hierarchical Planner the paper instrumented) and the same PPO
// budget; only the grouper changes.
//
// Expected shape (paper): Feed-forward <= METIS < Networkx on every
// model, with the gap widening on BERT.
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

namespace {

rl::TrainResult RunGrouper(const std::string& grouper,
                           bench::BenchContext& context,
                           const BenchConfig& config) {
  const auto dims = config.dims();
  std::unique_ptr<core::PolicyAgent> agent;
  if (grouper == "feed-forward") {
    core::HierarchicalAgentConfig agent_config;
    agent_config.display_name = "grouper:feed-forward";
    agent_config.dims = dims;
    agent_config.grouper = core::GrouperKind::kLearned;
    agent_config.placer = core::PlacerKind::kSeq2Seq;
    agent_config.attention = core::AttentionVariant::kAfter;
    agent_config.use_bridge = false;
    agent_config.seed = config.seed;
    agent = std::make_unique<core::HierarchicalAgent>(
        context.graph, context.cluster, std::move(agent_config));
  } else {
    auto grouping =
        grouper == "metis"
            ? bench::MetisGrouping(context.graph, dims.num_groups,
                                   config.seed)
            : bench::FluidGrouping(context.graph, dims.num_groups,
                                   config.seed);
    agent = core::MakeFixedGrouperAgent(
        context.graph, context.cluster, std::move(grouping),
        core::PlacerKind::kSeq2Seq, core::AttentionVariant::kAfter, dims,
        config.seed, "grouper:" + grouper);
  }
  return bench::TrainOnBenchmark(*agent, context, rl::Algorithm::kPpo,
                                 config);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "Table I: hierarchical model with different groupers");
  bench::AddCommonFlags(args, /*default_samples=*/220);
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  support::Table table(
      "TABLE I: Per-step time (in seconds) of placements found by the "
      "hierarchical model with different groupers.");
  table.SetHeader({"Models", "Feed-forward", "METIS", "Networkx(fluid)"});
  for (auto benchmark : config.benchmarks) {
    auto context = bench::MakeContext(benchmark, &config);
    std::vector<std::string> row{models::BenchmarkName(benchmark)};
    for (const char* grouper : {"feed-forward", "metis", "fluid"}) {
      row.push_back(
          bench::FormatResult(RunGrouper(grouper, context, config)));
    }
    table.AddRow(std::move(row));
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "table1");
  return bench::Finish(config);
}
