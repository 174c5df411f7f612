// Structure-aware fuzz driver for the graph ingestion pipeline.
//
// Four modes, all deterministic for a given --seed:
//
//   generate  build a valid layered training graph and write it out
//             (--format=eg|json, or inferred from --out's suffix):
//               $ ./graph_fuzz --mode=generate --ops=2000 --out=g.eg
//   fuzz      load a valid serialized graph, then repeatedly corrupt a
//             copy (models::MutateSerializedGraph) and feed it to the
//             hardened parser, histogramming the error-taxonomy codes.
//             Every mutant the parser accepts then goes through the e2e
//             mode's METIS-group → simulate step (on --cluster), so what
//             consumes a graph sees the accepted mutants too. Any crash/
//             throw — instead of a structured error — is the bug this
//             tool exists to catch; run it under the ASan/UBSan build
//             (scripts/run_ci.sh does):
//               $ ./graph_fuzz --mode=fuzz --in=g.eg --iters=10000
//   e2e       generate → serialize → re-ingest → validate → METIS-group
//             → simulate one training step, end to end, at stress scale:
//               $ ./graph_fuzz --mode=e2e --ops=100000
//   cluster-fuzz  like fuzz, but corrupts a cluster-spec file (.ec or
//             .json) and feeds it to the hardened cluster importer:
//               $ ./graph_fuzz --mode=cluster-fuzz --in=clusters/2node8.ec
//
// Exit codes: 0 success, 2 structured ingestion failure (e2e/fuzz
// input) or an e2e/fuzz cluster without a GPU to place on, matching the
// friendly-diagnostic convention of the other tools.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/expert_policies.h"
#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "models/fuzz_corpus.h"
#include "sim/cluster_ingest.h"
#include "sim/device.h"
#include "sim/placement.h"
#include "sim/simulator.h"
#include "support/args.h"
#include "support/rng.h"
#include "support/stopwatch.h"

using namespace eagle;

namespace {

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

graph::OpGraph Generate(int ops, std::uint64_t seed) {
  models::FuzzGraphConfig config;
  // Training augmentation roughly doubles the graph; aim the forward
  // half so the final op count lands near --ops.
  config.num_ops = ops / 2 + 1;
  config.width = 64;
  support::Rng rng(seed);
  return models::BuildFuzzGraph(config, rng);
}

std::string Serialize(const graph::OpGraph& graph, bool json) {
  if (json) return graph::ToJson(graph);
  std::ostringstream os;
  graph::SaveText(graph, os);
  return os.str();
}

// The e2e step after ingestion: a METIS-balanced placement over the
// cluster's GPUs, simulated for one training step.
sim::StepResult GroupAndSimulate(const graph::OpGraph& graph,
                                 const sim::ClusterSpec& cluster,
                                 std::uint64_t seed) {
  const sim::Placement placement =
      core::MetisBalancedPlacement(graph, cluster, seed);
  sim::ExecutionSimulator simulator(graph, cluster);
  return simulator.Run(placement);
}

// Mutation fuzz of one importer: `parse` maps a corrupted copy of the
// file to its status (ok when it parsed). The contract under test
// is that every mutant comes back as a structured result, never a crash
// or a throw; the histogram shows which failure modes the mutants reach.
template <typename Parse>
int RunFuzz(const std::string& path, const char* what, const char* format,
            int iters, std::uint64_t seed, Parse&& parse) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "graph_fuzz: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string base = buffer.str();

  support::Rng rng(seed);
  std::map<std::string, int> histogram;
  for (int i = 0; i < iters; ++i) {
    std::string mutant = base;
    // 1–3 stacked mutations: single corruptions explore the taxonomy,
    // stacks reach states no single edit produces.
    const int depth = 1 + static_cast<int>(rng.NextBelow(3));
    for (int d = 0; d < depth; ++d) {
      mutant = models::MutateSerializedGraph(mutant, rng);
    }
    ++histogram[support::ErrorCodeName(parse(mutant).code())];
  }
  std::printf("%d %s of %s (%s):\n", iters, what, path.c_str(), format);
  for (const auto& [code, count] : histogram) {
    std::printf("  %-17s %d\n", code.c_str(), count);
  }
  return 0;
}

int RunE2e(int ops, std::uint64_t seed, bool json,
           const sim::ClusterSpec& cluster) {
  support::Stopwatch stopwatch;
  const graph::OpGraph generated = Generate(ops, seed);
  const std::string serialized = Serialize(generated, json);
  std::printf("generated %d ops, %d edges (%zu serialized bytes, %.2f s)\n",
              generated.num_ops(), generated.num_edges(), serialized.size(),
              stopwatch.ElapsedSeconds());

  graph::IngestOptions options;
  options.source_name = json ? "<e2e.json>" : "<e2e.eg>";
  support::StatusOr<graph::OpGraph> parsed =
      json ? graph::FromJson(serialized, options)
           : graph::ParseTextGraph(serialized, options);
  if (!parsed.ok()) {
    std::fprintf(stderr, "graph_fuzz: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const graph::OpGraph& graph = parsed.value();
  std::printf("ingested + validated in %.2f s\n",
              stopwatch.ElapsedSeconds());

  const sim::StepResult result = GroupAndSimulate(graph, cluster, seed);
  std::printf("METIS-balanced placement, simulated step: %s (total %.2f s)\n",
              result.ToString(cluster).c_str(), stopwatch.ElapsedSeconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("EAGLE graph-ingestion fuzzer");
  args.AddString("mode", "fuzz",
                 "generate | fuzz | e2e | cluster-fuzz");
  args.AddInt("ops", 10000, "approximate op count (generate/e2e)");
  args.AddInt("seed", 1, "deterministic corpus seed");
  args.AddInt("iters", 1000, "mutants to try (fuzz/cluster-fuzz)");
  args.AddString("in", "",
                 "valid graph (fuzz) or cluster-spec (cluster-fuzz) file "
                 "to mutate");
  args.AddString("out", "", "output path (generate)");
  args.AddString("format", "",
                 "eg | json (default: from the file suffix, else eg)");
  args.AddString("cluster", "",
                 "cluster topology for e2e/fuzz: default, 2node8, mixed or a "
                 ".ec/.json spec file");
  if (!args.Parse(argc, argv)) return 0;

  const std::string mode = args.GetString("mode");
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  const int ops = static_cast<int>(args.GetInt("ops"));
  const std::string format_flag = args.GetString("format");
  auto is_json = [&](const std::string& path) {
    if (!format_flag.empty()) return format_flag == "json";
    return HasSuffix(path, ".json");
  };

  if (mode == "generate") {
    const std::string out_path = args.GetString("out");
    if (out_path.empty()) {
      std::fprintf(stderr, "graph_fuzz: --mode=generate needs --out\n");
      return 2;
    }
    const graph::OpGraph graph = Generate(ops, seed);
    std::ofstream out(out_path, std::ios::binary);
    if (out) out << Serialize(graph, is_json(out_path));
    if (!out) {
      std::fprintf(stderr, "graph_fuzz: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    std::printf("wrote %s (%d ops, %d edges)\n", out_path.c_str(),
                graph.num_ops(), graph.num_edges());
    return 0;
  }
  if (mode == "cluster-fuzz") {
    const std::string in_path = args.GetString("in");
    if (in_path.empty()) {
      std::fprintf(stderr, "graph_fuzz: --mode=%s needs --in\n",
                   mode.c_str());
      return 2;
    }
    const bool json = is_json(in_path);
    return RunFuzz(in_path, "cluster mutants", json ? "json" : "ec",
                   static_cast<int>(args.GetInt("iters")), seed,
                   [&](const std::string& mutant) -> support::Status {
                     return json ? sim::ClusterFromJson(mutant).status()
                                 : sim::ParseTextCluster(mutant).status();
                   });
  }
  if (mode != "fuzz" && mode != "e2e") {
    std::fprintf(stderr, "graph_fuzz: unknown --mode=%s\n", mode.c_str());
    return 2;
  }
  // Both remaining modes group and simulate on the cluster's GPUs.
  support::StatusOr<sim::ClusterSpec> resolved =
      sim::ResolveCluster(args.GetString("cluster"));
  if (!resolved.ok()) {
    std::fprintf(stderr, "graph_fuzz: %s\n",
                 resolved.status().ToString().c_str());
    return 2;
  }
  const sim::ClusterSpec& cluster = resolved.value();
  if (cluster.Gpus().empty()) {
    std::fprintf(stderr,
                 "graph_fuzz: --mode=%s places on GPUs and the cluster "
                 "has none\n",
                 mode.c_str());
    return 2;
  }
  if (mode == "e2e") return RunE2e(ops, seed, is_json(""), cluster);
  const std::string in_path = args.GetString("in");
  if (in_path.empty()) {
    std::fprintf(stderr, "graph_fuzz: --mode=fuzz needs --in\n");
    return 2;
  }
  const bool json = is_json(in_path);
  int simulated = 0;
  const int status = RunFuzz(
      in_path, "mutants", json ? "json" : "eg",
      static_cast<int>(args.GetInt("iters")), seed,
      [&](const std::string& mutant) -> support::Status {
        support::StatusOr<graph::OpGraph> parsed =
            json ? graph::FromJson(mutant) : graph::ParseTextGraph(mutant);
        if (parsed.ok()) {
          GroupAndSimulate(parsed.value(), cluster, seed);
          ++simulated;
        }
        return parsed.status();
      });
  if (status == 0) {
    std::printf("  grouped and simulated %d accepted mutants\n", simulated);
  }
  return status;
}
