// Model inspector: prints graph statistics, per-layer resource breakdowns
// and memory feasibility for a benchmark (or a .eg file), and optionally
// exports DOT / JSON / .eg.
//
//   $ ./inspect_model --model=bert
//   $ ./inspect_model --model=gnmt --dot=gnmt.dot --layers
//   $ ./inspect_model --load=my_graph.eg --json=my_graph.json
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "models/zoo.h"
#include "sim/measurement.h"
#include "support/args.h"
#include "support/table.h"

using namespace eagle;

int main(int argc, char** argv) {
  support::ArgParser args("EAGLE model inspector");
  args.AddString("model", "bert", "inception_v3 | gnmt | bert");
  args.AddString("load", "",
                 "load a .eg or .json graph instead of a benchmark");
  args.AddString("dot", "", "write Graphviz DOT here");
  args.AddString("json", "", "write JSON here");
  args.AddString("eg", "", "write .eg text format here");
  args.AddBool("layers", false, "print the per-layer breakdown");
  args.AddBool("types", false, "print the per-op-type breakdown");
  if (!args.Parse(argc, argv)) return 0;

  graph::OpGraph graph;
  if (args.GetString("load").empty()) {
    // An unknown --model is one stderr line and exit 2.
    graph = models::BuildBenchmark(
        args.GetParsed("model", models::BenchmarkFromName));
  } else {
    // Hardened ingestion: a malformed file is a diagnostic with the
    // offending file:line:column and exit 2, never an abort.
    support::StatusOr<graph::OpGraph> parsed =
        graph::ImportGraphFile(args.GetString("load"));
    if (!parsed.ok()) {
      std::fprintf(stderr, "inspect_model: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    graph = std::move(parsed).value();
  }
  std::printf("%s\n", graph.StatsString().c_str());

  const auto cluster = sim::MakeDefaultCluster();
  sim::MeasurementSession session(graph, cluster);
  for (sim::DeviceId d = 1; d < cluster.num_devices(); ++d) {
    const auto eval =
        session.Evaluate(sim::Placement::AllOnDevice(graph, cluster, d));
    std::printf("all on %s: %s\n", cluster.device(d).name.c_str(),
                eval.valid
                    ? (support::Table::Num(eval.true_per_step_seconds, 4) +
                       " s/step")
                        .c_str()
                    : "OOM");
    break;  // one representative GPU is enough (they are identical)
  }

  if (args.GetBool("layers")) {
    struct LayerInfo {
      int ops = 0;
      double gflops = 0.0;
      double param_mb = 0.0;
      double act_mb = 0.0;
    };
    std::map<std::string, LayerInfo> layers;
    for (const auto& op : graph.ops()) {
      auto& info = layers[op.layer.empty() ? "(untagged)" : op.layer];
      info.ops++;
      info.gflops += op.flops / 1e9;
      info.param_mb += static_cast<double>(op.param_bytes) / (1 << 20);
      info.act_mb += static_cast<double>(op.output_bytes()) / (1 << 20);
    }
    support::Table table("per-layer breakdown");
    table.SetHeader({"layer", "ops", "GFLOP", "params MB", "acts MB"});
    for (const auto& [name, info] : layers) {
      table.AddRow({name, std::to_string(info.ops),
                    support::Table::Num(info.gflops, 1),
                    support::Table::Num(info.param_mb, 1),
                    support::Table::Num(info.act_mb, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
  }

  if (args.GetBool("types")) {
    std::map<std::string, std::pair<int, double>> types;
    for (const auto& op : graph.ops()) {
      auto& [count, gflops] = types[graph::OpTypeName(op.type)];
      count++;
      gflops += op.flops / 1e9;
    }
    support::Table table("per-type breakdown");
    table.SetHeader({"op type", "count", "GFLOP"});
    for (const auto& [name, info] : types) {
      table.AddRow({name, std::to_string(info.first),
                    support::Table::Num(info.second, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
  }

  auto write_file = [](const std::string& path, const std::string& body) {
    std::ofstream out(path);
    out << body;
    return static_cast<bool>(out);
  };
  if (!args.GetString("dot").empty() &&
      write_file(args.GetString("dot"), graph::ToDot(graph))) {
    std::printf("wrote %s\n", args.GetString("dot").c_str());
  }
  if (!args.GetString("json").empty() &&
      write_file(args.GetString("json"), graph::ToJson(graph))) {
    std::printf("wrote %s\n", args.GetString("json").c_str());
  }
  if (!args.GetString("eg").empty() &&
      graph::SaveTextFile(graph, args.GetString("eg"))) {
    std::printf("wrote %s\n", args.GetString("eg").c_str());
  }
  return 0;
}
