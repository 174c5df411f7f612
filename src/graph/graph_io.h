// Graph serialization: DOT (for visualization), JSON (for external
// tooling), and a line-based ".eg" text format that round-trips through
// SaveText and graph/ingest.h's ParseTextGraph / ImportGraphFile, so
// users can define custom graphs in a file.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/op_graph.h"

namespace eagle::graph {

// Graphviz DOT; groups color nodes when a grouping is supplied.
std::string ToDot(const OpGraph& graph, const Grouping* grouping = nullptr);

// Compact JSON; re-readable via graph/ingest.h's FromJson, and the two
// round-trip byte-identically (FromJson(ToJson(g)) reprints to the same
// string). Schema in docs/GRAPH_FORMATS.md.
std::string ToJson(const OpGraph& graph);

// .eg text format (full grammar in docs/GRAPH_FORMATS.md):
//   op <name> <type> <shape d0xd1x...> flops=<f> params=<b> [temp=<b>]
//       [cpu_only] [grad] [layer=<tag>] [colo=<group>]
//   edge <src_name> <dst_name> [bytes]
// Lines starting with '#' are comments.
void SaveText(const OpGraph& graph, std::ostream& out);
bool SaveTextFile(const OpGraph& graph, const std::string& path);

}  // namespace eagle::graph
