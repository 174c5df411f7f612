// --load / --cluster flag plumbing shared by the benches: import user
// graph files (.eg / .json) through the hardened ingestion pipeline and
// resolve cluster topology specs the same way.
//
// Kept separate from bench_common.h so bench_micro (which links only
// nn/sim/models, not the RL stack) can use it too.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "graph/ingest.h"
#include "sim/cluster_ingest.h"
#include "support/args.h"

namespace eagle::bench {

// Imports and validates every file in the comma-separated `list`; returns
// each graph in order, named after its file's basename without extension
// ("runs/my_net.eg" → "my_net"). A malformed graph is a friendly exit 2
// with the parser's file:line:column diagnostic on stderr — the same
// convention as the tools (inspect_model, trace_placement).
inline std::vector<std::pair<std::string, graph::OpGraph>> ImportGraphsOrExit(
    const std::string& list) {
  std::vector<std::pair<std::string, graph::OpGraph>> graphs;
  for (const std::string& path : support::SplitList(list)) {
    support::StatusOr<graph::OpGraph> parsed = graph::ImportGraphFile(path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      std::exit(2);
    }
    std::string name = path.substr(path.find_last_of('/') + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0) name.resize(dot);
    graphs.emplace_back(std::move(name), std::move(parsed).value());
  }
  return graphs;
}

// Resolves a --cluster value (builtin name or spec file path) through
// sim::ResolveCluster; a malformed or unvalidatable spec is the same
// friendly exit 2 with the parser's file:line:column diagnostic.
inline sim::ClusterSpec ResolveClusterOrExit(const std::string& spec) {
  support::StatusOr<sim::ClusterSpec> cluster = sim::ResolveCluster(spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(cluster).value();
}

}  // namespace eagle::bench
