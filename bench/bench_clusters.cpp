// Heterogeneous-cluster comparison: the Table-IV headline rows (Single
// GPU, Human Experts, METIS-balanced, EAGLE PPO) replayed on the two
// shipped hierarchical topologies instead of the paper's single-root
// 4-GPU box:
//
//   2node8 — two nodes of 4 NVLink-meshed GPUs each, PCIe to the host,
//            nodes joined by one InfiniBand NIC per node (shared egress
//            channel);
//   mixed  — one box mixing two fast and two slow GPUs on a shared PCIe
//            root.
//
// Expected shape: the gap between EAGLE and the oblivious baselines
// widens — Single GPU cannot use the second node at all, the GNMT expert
// stripes layers across nodes without knowing the IB hop is ~20x slower
// than NVLink, and METIS balances edge cut but not device speed, so it
// pays on mixed where the slow GPUs stall the critical path.
//
// --cluster pins a single topology (builtin name or .ec/.json spec
// file); the default sweeps both. Writes results/BENCH_clusters.json
// (override with --out=PATH) plus the usual --csv tables.
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

namespace {

// One measured cell: the formatted table entry plus the raw seconds for
// the JSON artifact (NaN = OOM, serialized as null).
struct Cell {
  std::string label;
  double seconds = std::nan("");
};

Cell EvalCell(const sim::EvalResult& eval) {
  return {bench::FormatEval(eval),
          eval.valid ? eval.true_per_step_seconds : std::nan("")};
}

Cell TrainCell(const rl::TrainResult& result) {
  return {bench::FormatResult(result),
          result.found_valid ? result.best_per_step_seconds : std::nan("")};
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "Heterogeneous clusters: baselines vs EAGLE on hierarchical "
      "topologies");
  bench::AddCommonFlags(args, /*default_samples=*/220);
  args.AddString("out", "results/BENCH_clusters.json",
                 "JSON results path (empty string: stdout tables only)");
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  // --cluster pins one topology; the default sweeps both shipped
  // hierarchical builtins (the homogeneous default box is already
  // covered by bench_table4).
  std::vector<std::pair<std::string, sim::ClusterSpec>> topologies;
  if (!config.cluster_name.empty()) {
    topologies.emplace_back(config.cluster_name, config.cluster);
  } else {
    topologies.emplace_back("2node8", sim::MakeTwoNodeNvlinkIbCluster());
    topologies.emplace_back("mixed", sim::MakeMixedSpeedCluster());
  }

  namespace json = support::json;
  std::ostringstream out_json;
  out_json << "{\n  \"samples\": " << config.samples
           << ",\n  \"seed\": " << config.seed << ",\n  \"topologies\": {";
  bool first_topo = true;

  for (const auto& [topo_name, topo_cluster] : topologies) {
    BenchConfig topo_config = config;
    topo_config.cluster_name = topo_name;
    topo_config.cluster = topo_cluster;

    support::Table table(
        "CLUSTERS (" + topo_name + ", " +
        std::to_string(topo_cluster.num_devices()) +
        " devices): per-step time (in seconds) of placements found by "
        "different approaches (lower is better). OOM stands for "
        "Out-Of-Memory.");
    table.SetHeader({"Models", "Single GPU", "Human Experts",
                     "METIS (balanced)", "EAGLE (PPO)"});

    out_json << (first_topo ? "" : ",") << "\n    \""
             << json::Escape(topo_name) << "\": {";
    first_topo = false;
    bool first_model = true;

    for (auto benchmark : config.benchmarks) {
      auto context = bench::MakeContext(benchmark, &topo_config);
      std::vector<Cell> cells;

      // Pre-defined placements (evaluated directly, no training).
      cells.push_back(EvalCell(context.env->Evaluate(
          core::SingleGpuPlacement(context.graph, context.cluster),
          nullptr)));
      const auto expert = core::HumanExpertPlacement(
          benchmark, context.graph, context.cluster);
      cells.push_back(expert ? EvalCell(context.env->Evaluate(*expert,
                                                              nullptr))
                             : Cell{"OOM", std::nan("")});
      cells.push_back(EvalCell(context.env->Evaluate(
          core::MetisBalancedPlacement(context.graph, context.cluster,
                                       config.seed),
          nullptr)));

      // The learned row: EAGLE trained with PPO against this topology.
      auto agent = core::MakeEagleAgent(context.graph, context.cluster,
                                        config.dims(), config.seed);
      cells.push_back(TrainCell(bench::TrainOnBenchmark(
          *agent, context, rl::Algorithm::kPpo, topo_config)));

      std::vector<std::string> row{models::BenchmarkName(benchmark)};
      out_json << (first_model ? "" : ",") << "\n      \""
               << json::Escape(models::BenchmarkName(benchmark)) << "\": {";
      first_model = false;
      const char* keys[] = {"single_gpu", "expert", "metis_balanced",
                            "eagle_ppo"};
      for (std::size_t i = 0; i < cells.size(); ++i) {
        row.push_back(cells[i].label);
        out_json << (i ? "," : "") << "\"" << keys[i] << "\": ";
        if (std::isfinite(cells[i].seconds)) {
          out_json << json::Num(cells[i].seconds);
        } else {
          out_json << "null";
        }
      }
      out_json << "}";
      table.AddRow(std::move(row));
    }
    out_json << "\n    }";

    std::fputs(table.ToString().c_str(), stdout);
    bench::MaybeWriteCsv(table, config, "clusters_" + topo_name);
  }
  out_json << "\n  }\n}\n";

  const std::string out = args.GetString("out");
  if (!out.empty()) {
    if (!support::WriteFileAtomic(out, [&](std::ostream& os) {
          os << out_json.str();
          return static_cast<bool>(os);
        })) {
      bench::ReportArtifactFailure("results JSON", out);
    } else {
      std::printf("wrote %s\n", out.c_str());
    }
  }
  return bench::Finish(config);
}
