// Semantic validation for ingested graphs.
//
// Parsing proves a file is well-formed; validation proves the resulting
// OpGraph is a graph the rest of the system can safely consume: acyclic,
// free of duplicate edges, with shape/byte arithmetic that cannot
// overflow int64, and within configurable resource caps. Every external
// entry point (inspect_model --load, trace_placement --load, bench_micro
// --load, custom_model --load) imports through graph/ingest.h, whose
// parsers refuse a duplicate pair as they add it, find cycles with their
// own attributed pass and then run ValidateGraphValues, all before the
// graph reaches grouping or simulation. ValidateGraph runs every check in
// one call, for graphs built in memory; only tests call it today.
#pragma once

#include <cstdint>

#include "graph/op_def.h"
#include "graph/op_graph.h"
#include "support/status.h"

namespace eagle::graph {

// Resource caps for untrusted graphs. The defaults are an order of
// magnitude above the 100k-op fuzzer stress corpus (docs/GRAPH_FORMATS.md)
// while still bounding what a hostile input can make the process
// allocate; entry points that trust their input can pass Unlimited().
struct IngestLimits {
  std::int64_t max_ops = 1'000'000;
  std::int64_t max_edges = 8'000'000;
  // Maximum tensor rank. Nothing in the op catalogue is deeper than 4-D;
  // 8 leaves headroom without letting dim lists grow unbounded.
  int max_rank = 8;
  // Cap on the summed memory footprint (output + param + temp bytes over
  // all ops), and separately on the bytes summed over all edges: 4 TiB,
  // far above any placeable graph on the simulated clusters but well
  // inside int64.
  std::int64_t max_total_bytes = std::int64_t{1} << 42;

  static IngestLimits Unlimited();
};

// Output + param + temp bytes of one op with overflow-checked arithmetic
// (the shape element product can overflow int64 long before Bytes()
// would notice). kNumericOverflow when it does not fit.
support::Status CheckedOpBytes(const OpDef& op, std::int64_t* out);

// Full semantic check: names (non-empty, no whitespace — they must
// survive the .eg text format), per-op byte arithmetic, non-negative
// edge bytes and their overflow-checked sum, endpoint validity, duplicate
// (src,dst) pairs, acyclicity, and the IngestLimits caps. Returns the
// first violation found, with the op/edge spelled out in the message:
// ValidateGraphValues' findings first, then a duplicate pair, then a
// cycle.
support::Status ValidateGraph(const OpGraph& graph,
                              const IngestLimits& limits = {});

// ValidateGraph without its two structural whole-graph checks (duplicate
// pairs, cycles): the names, ranks, bytes, edge endpoints, self and
// negative edges, summed bytes and caps. For callers that have proved the
// structure already — the importers refuse a duplicate pair as they add
// it and find cycles with their own attributed Kahn pass.
support::Status ValidateGraphValues(const OpGraph& graph,
                                    const IngestLimits& limits = {});

}  // namespace eagle::graph
