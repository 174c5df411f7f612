// Placement tracer: simulates one training step of a benchmark under a
// chosen placement policy with full schedule recording, writes a Chrome
// tracing / Perfetto JSON timeline, and prints the critical-path
// attribution (compute vs transfer vs queueing).
//
//   $ ./trace_placement --model=gnmt --policy=expert --out=gnmt.trace.json
//   $ ./trace_placement --load=my_graph.eg --policy=balanced
//   then open chrome://tracing or https://ui.perfetto.dev
//
// Policies: single (one GPU), expert (the paper's human-expert layout,
// built-in models only), balanced (METIS groups round-robined over the
// GPUs), random. Malformed --load files and unusable policy choices (a
// GPU policy on a cluster without a GPU, say), like bad --model and
// --faults values, are a diagnostic on stderr and exit 2, never an abort.
#include <cstdio>
#include <ostream>
#include <utility>

#include "core/expert_policies.h"
#include "graph/ingest.h"
#include "models/zoo.h"
#include "sim/cluster_ingest.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "support/args.h"
#include "support/atomic_file.h"
#include "support/rng.h"

using namespace eagle;

namespace {

sim::Placement MakePlacement(const std::string& policy,
                             const graph::OpGraph& graph,
                             const sim::ClusterSpec& cluster,
                             std::uint64_t seed) {
  if (policy == "single") {
    return core::SingleGpuPlacement(graph, cluster);
  }
  if (policy == "balanced") {
    return core::MetisBalancedPlacement(graph, cluster, seed);
  }
  if (policy == "random") {
    support::Rng rng(seed);
    std::vector<sim::DeviceId> devices(
        static_cast<std::size_t>(graph.num_ops()));
    for (auto& d : devices) {
      d = static_cast<sim::DeviceId>(
          rng.NextBelow(static_cast<std::uint64_t>(cluster.num_devices())));
    }
    sim::Placement placement(graph, std::move(devices));
    placement.Normalize(graph, cluster);
    return placement;
  }
  EAGLE_CHECK_MSG(false, "unreachable: policy validated in main");
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("EAGLE placement tracer");
  args.AddString("model", "gnmt", "inception_v3 | gnmt | bert");
  args.AddString("load", "",
                 "trace a .eg or .json graph file instead of a benchmark");
  args.AddString("policy", "balanced",
                 "single | expert | balanced | random");
  args.AddString("out", "placement.trace.json", "trace output path");
  args.AddInt("seed", 1, "RNG seed for the random/balanced policies");
  args.AddString("faults", "",
                 "inject one fault draw into the traced step, e.g. "
                 "straggler=0.5,slowdown=4,link=0.3 (seed=N picks the draw)");
  args.AddString("cluster", "",
                 "cluster topology: default, 2node8, mixed, or a "
                 ".ec/.json cluster-spec file");
  if (!args.Parse(argc, argv)) return 0;

  const std::string policy = args.GetString("policy");
  if (policy != "single" && policy != "expert" && policy != "balanced" &&
      policy != "random") {
    std::fprintf(stderr,
                 "trace_placement: unknown policy '%s' (expected single, "
                 "expert, balanced or random)\n",
                 policy.c_str());
    return 2;
  }

  // Flag values are untrusted input: a bad --model or --faults value is
  // one stderr line and exit 2, like a malformed --load file.
  const bool loading = !args.GetString("load").empty();
  const models::Benchmark benchmark =
      loading ? models::Benchmark{}
              : args.GetParsed("model", models::BenchmarkFromName);
  const sim::FaultProfile fault_profile =
      args.GetParsed("faults", sim::FaultProfileFromString);
  graph::OpGraph graph;
  if (loading) {
    // Hardened ingestion: a malformed file is a diagnostic with the
    // offending file:line:column and exit 2, never an abort.
    support::StatusOr<graph::OpGraph> parsed =
        graph::ImportGraphFile(args.GetString("load"));
    if (!parsed.ok()) {
      std::fprintf(stderr, "trace_placement: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    graph = std::move(parsed).value();
  } else {
    graph = models::BuildBenchmark(benchmark);
  }

  // Same hardened path as graphs: builtin names resolve directly, file
  // paths go through the validating cluster importer.
  support::StatusOr<sim::ClusterSpec> resolved =
      sim::ResolveCluster(args.GetString("cluster"));
  if (!resolved.ok()) {
    std::fprintf(stderr, "trace_placement: %s\n",
                 resolved.status().ToString().c_str());
    return 2;
  }
  const sim::ClusterSpec cluster = std::move(resolved).value();
  if (policy != "random" && cluster.Gpus().empty()) {
    std::fprintf(stderr,
                 "trace_placement: the %s policy needs a GPU and the "
                 "cluster has none — try --policy=random\n",
                 policy.c_str());
    return 2;
  }
  sim::Placement placement;
  if (policy == "expert") {
    // Expert layouts exist only for the built-in benchmarks.
    if (loading) {
      std::fprintf(stderr,
                   "trace_placement: the expert policy needs a built-in "
                   "--model, not --load — try --policy=balanced\n");
      return 2;
    }
    auto expert = core::HumanExpertPlacement(benchmark, graph, cluster);
    if (!expert.has_value()) {
      std::fprintf(stderr,
                   "trace_placement: no expert placement for '%s' — try "
                   "--policy=balanced\n",
                   args.GetString("model").c_str());
      return 2;
    }
    placement = *std::move(expert);
  } else {
    placement = MakePlacement(
        policy, graph, cluster,
        static_cast<std::uint64_t>(args.GetInt("seed")));
  }

  // Optional fault injection: one deterministic draw (the profile's seed
  // picks which) so slowed devices / degraded links show up directly in
  // the exported timeline.
  sim::FaultDraw draw;
  if (fault_profile.enabled()) {
    sim::FaultInjector injector(fault_profile, cluster);
    support::Rng fault_rng(fault_profile.seed);
    draw = injector.Draw(fault_rng);
    std::printf("faults: %s\n", draw.ToString(cluster).c_str());
    if (draw.session_crash || draw.HitsDownDevice(placement)) {
      std::printf(
          "this draw would fail the measurement attempt (crash or "
          "down device); tracing the degraded schedule anyway\n");
    }
  }

  sim::SimulatorOptions options;
  options.record_schedule = true;
  sim::ExecutionSimulator simulator(graph, cluster, options);
  const auto result = simulator.Run(
      placement, fault_profile.enabled() ? &draw : nullptr);
  std::printf("%s\n", result.ToString(cluster).c_str());
  if (result.oom) return 1;

  // ToChromeTrace aborts (EAGLE_CHECK) on a schedule-less result; a tool
  // user should get a diagnostic and an exit code instead. This happens
  // when the simulated graph has ops but recording was disabled or the
  // run produced no timeline.
  if (result.schedule.empty() && graph.num_ops() > 0) {
    std::fprintf(stderr,
                 "trace_placement: the simulator returned no recorded "
                 "schedule for '%s' (%d ops) — nothing to export.\n"
                 "This usually means schedule recording was disabled; "
                 "rerun with a build where SimulatorOptions::"
                 "record_schedule is honored.\n",
                 (loading ? args.GetString("load") : args.GetString("model"))
                     .c_str(),
                 graph.num_ops());
    return 2;
  }

  const auto report = sim::AnalyzeCriticalPath(result, graph);
  std::printf("%s\n", report.ToString(graph).c_str());

  const std::string out_path = args.GetString("out");
  const std::string trace = sim::ToChromeTrace(result, graph, cluster);
  // Atomic write: never leave a truncated trace behind on a full disk.
  if (!support::WriteFileAtomic(out_path, [&](std::ostream& out) {
        out << trace;
        return static_cast<bool>(out);
      })) {
    std::fprintf(stderr, "trace_placement: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%d ops, %d transfers)\n", out_path.c_str(),
              static_cast<int>(result.schedule.size()),
              static_cast<int>(result.transfers.size()));
  return 0;
}
