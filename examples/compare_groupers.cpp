// Compare grouping strategies on GNMT (§III-B): learned feed-forward vs
// METIS vs fluid communities, both on raw partition quality (edge cut,
// balance) and on the per-step time of the placement each enables.
//
//   $ ./compare_groupers [--samples=N] [--groups=K]
#include <cstdio>

#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/policy.h"
#include "models/gnmt.h"
#include "partition/fluid.h"
#include "partition/metis_like.h"
#include "rl/trainer.h"
#include "support/args.h"
#include "support/table.h"

using namespace eagle;

namespace {

void PrintPartitionQuality(const graph::OpGraph& graph,
                           const graph::Grouping& grouping, int num_groups,
                           const char* name) {
  const auto wg = partition::BuildWeightedGraph(graph);
  const auto metrics = partition::ComputeMetrics(wg, grouping, num_groups);
  std::printf("%-16s cut %8.3f GB   balance %.2f   nonempty groups %d/%d\n",
              name, static_cast<double>(metrics.cut_weight) / (1 << 30),
              metrics.balance, metrics.num_nonempty, num_groups);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("Grouper comparison on GNMT");
  args.AddInt("samples", 150, "placements per training run");
  args.AddInt("groups", 48, "number of operation groups");
  args.AddInt("seed", 3, "RNG seed");
  if (!args.Parse(argc, argv)) return 0;
  const int k = static_cast<int>(args.GetInt("groups"));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed"));

  graph::OpGraph graph = models::BuildGNMT();
  sim::ClusterSpec cluster = sim::MakeDefaultCluster();
  std::printf("GNMT: %s\n\n", graph.StatsString().c_str());

  // Static partition quality (what min-cut heuristics optimize)…
  partition::MetisOptions metis;
  metis.num_parts = k;
  metis.seed = seed;
  const auto metis_grouping = partition::MetisPartition(graph, metis);
  partition::FluidOptions fluid;
  fluid.num_communities = k;
  fluid.seed = seed;
  const auto fluid_grouping = partition::FluidCommunities(graph, fluid);
  PrintPartitionQuality(graph, metis_grouping, k, "METIS");
  PrintPartitionQuality(graph, fluid_grouping, k, "fluid");

  // …vs what actually matters: the per-step time of the placement the
  // placer learns on top of each grouping.
  core::AgentDims dims;
  dims.num_groups = k;
  rl::TrainerOptions options;
  options.total_samples = static_cast<int>(args.GetInt("samples"));
  options.seed = seed;

  support::Table table("\nPlacement quality per grouper");
  table.SetHeader({"Grouper", "best s/step", "invalid samples"});
  struct Entry {
    const char* name;
    graph::Grouping grouping;  // empty == learned
  };
  std::vector<Entry> entries{{"feed-forward", {}},
                             {"METIS", metis_grouping},
                             {"fluid", fluid_grouping}};
  for (auto& entry : entries) {
    core::PlacementEnvironment env(graph, cluster);
    std::unique_ptr<core::PolicyAgent> agent;
    if (entry.grouping.empty()) {
      agent = core::MakeEagleAgent(graph, cluster, dims, seed);
    } else {
      agent = core::MakeFixedGrouperAgent(
          graph, cluster, entry.grouping, core::PlacerKind::kSeq2Seq,
          core::AttentionVariant::kBefore, dims, seed, entry.name);
    }
    const auto result = rl::TrainAgent(*agent, env, options);
    table.AddRow({entry.name,
                  result.found_valid
                      ? support::Table::Num(result.best_per_step_seconds)
                      : "OOM",
                  std::to_string(result.invalid_samples)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}
