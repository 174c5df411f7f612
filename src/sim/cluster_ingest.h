// Hardened cluster-spec ingestion: StatusOr parsers for untrusted input.
//
// Clusters are first-class inputs like graphs: everything that accepts a
// *user-supplied* cluster file — bench --cluster, trace_placement
// --cluster, graph_fuzz --cluster — goes through this module. No input,
// however malformed, makes these functions throw or abort; failures come
// back as a support::Status carrying the shared graph-ingestion error
// taxonomy code and the file:line:column the problem was detected at
// (docs/GRAPH_FORMATS.md defines the codes, docs/SIMULATOR.md the
// grammar).
//
// Two formats are accepted:
//   *.ec   — a line-based text format:
//              device <name> <cpu|gpu> [gflops=] [mem_bw=] [overhead=] [mem=]
//              default_link [bw=<gbps>] [lat=<us>]
//              link <src> <dst> [bw=<gbps>] [lat=<us>] [chan=<label>] [bidir]
//            an omitted bw=/lat= keeps the LinkSpec default (12 GB/s,
//            10 µs)
//   *.json — an object with "devices", optional "default_link", "links"
// Ingestion is one-way (there is no cluster writer); specs are authored
// by hand or by tools/graph_fuzz --mode=cluster-fuzz mutation seeds. The
// line reader, JSON record checks and file import underneath are shared
// with the graph importer (graph/record_reader.h).
#pragma once

#include <string>

#include "sim/device.h"
#include "support/status.h"

namespace eagle::sim {

// Resource caps applied while parsing, before validation: a hostile spec
// cannot balloon the O(n^2) link matrix before Validate() runs.
struct ClusterLimits {
  int max_devices = 512;
};

struct ClusterIngestOptions {
  // Every parser also runs ClusterSpec::Validate() on its result.
  ClusterLimits limits;
  // Name used in diagnostics ("<input>" for in-memory strings;
  // ImportClusterFile overrides it with the path).
  std::string source_name = "<input>";
};

// Parses the .ec text format. Never throws on malformed input.
support::StatusOr<ClusterSpec> ParseTextCluster(
    const std::string& text, const ClusterIngestOptions& opts = {});

// Parses the JSON cluster format. Never throws on malformed input.
// Syntax errors carry line:column derived from the JSON parser's byte
// offset; semantic errors name the offending devices[i]/links[i] entry.
support::StatusOr<ClusterSpec> ClusterFromJson(
    const std::string& text, const ClusterIngestOptions& opts = {});

// Opens `path`, dispatches on its suffix (".json" → the ClusterFromJson
// grammar, anything else → the .ec grammar, streamed from disk), and
// uses the path as the diagnostic source name. kIo when the file cannot
// be opened or read.
support::StatusOr<ClusterSpec> ImportClusterFile(
    const std::string& path, const ClusterIngestOptions& opts = {});

// Resolves a --cluster CLI value: "" or "default" → MakeDefaultCluster();
// "2node8" → MakeTwoNodeNvlinkIbCluster(); "mixed" →
// MakeMixedSpeedCluster(); anything else is treated as a path and goes
// through ImportClusterFile.
support::StatusOr<ClusterSpec> ResolveCluster(
    const std::string& spec, const ClusterIngestOptions& opts = {});

}  // namespace eagle::sim
