// Fig. 2 reproduction: per-step time of the placement for BERT found by
// the hierarchical model with different groupers during training.
//
// Expected shape (paper): the learned feed-forward grouper explores well
// (dips below the heuristics mid-training) but its coupled training is
// unstable on BERT; METIS/fluid with a fixed grouping converge smoothly.
#include "bench/bench_figs.h"

using namespace eagle;
using bench::BenchConfig;

int main(int argc, char** argv) {
  support::ArgParser args("Fig. 2: BERT training curves per grouper");
  bench::AddCommonFlags(args, /*default_samples=*/250);
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  auto fixed_grouper_agent = [](const std::string& grouper) {
    return [grouper](const bench::BenchContext& context,
                     const BenchConfig& config_inner) {
      auto grouping =
          grouper == "METIS"
              ? bench::MetisGrouping(context.graph,
                                     config_inner.dims().num_groups,
                                     config_inner.seed)
              : bench::FluidGrouping(context.graph,
                                     config_inner.dims().num_groups,
                                     config_inner.seed);
      return std::unique_ptr<core::PolicyAgent>(core::MakeFixedGrouperAgent(
          context.graph, context.cluster, std::move(grouping),
          core::PlacerKind::kSeq2Seq, core::AttentionVariant::kAfter,
          config_inner.dims(), config_inner.seed, grouper));
    };
  };

  std::vector<bench::CurveAgent> agents{
      bench::CurveAgent{
          "Feed-forward",
          [](const bench::BenchContext& context,
             const BenchConfig& config_inner) {
            core::HierarchicalAgentConfig agent_config;
            agent_config.display_name = "Feed-forward";
            agent_config.dims = config_inner.dims();
            agent_config.grouper = core::GrouperKind::kLearned;
            agent_config.placer = core::PlacerKind::kSeq2Seq;
            agent_config.attention = core::AttentionVariant::kAfter;
            agent_config.use_bridge = false;
            agent_config.seed = config_inner.seed;
            return std::unique_ptr<core::PolicyAgent>(
                std::make_unique<core::HierarchicalAgent>(
                    context.graph, context.cluster, std::move(agent_config)));
          },
          rl::Algorithm::kPpo},
      bench::CurveAgent{"METIS", fixed_grouper_agent("METIS"),
                        rl::Algorithm::kPpo},
      bench::CurveAgent{"Networkx(fluid)", fixed_grouper_agent("fluid"),
                        rl::Algorithm::kPpo},
  };
  bench::RunCurves("fig2", models::Benchmark::kBertBase, agents, config);
  return bench::Finish(config);
}
