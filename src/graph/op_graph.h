// OpGraph: the computational-graph IR consumed by every other subsystem.
//
// A directed acyclic graph of operations. Edges carry the number of bytes
// transferred from producer to consumer (normally the producer's output
// size, but builders may override, e.g. for sliced tensors).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/op_def.h"

namespace eagle::graph {

struct Edge {
  OpId src = kInvalidOp;
  OpId dst = kInvalidOp;
  std::int64_t bytes = 0;
};

class OpGraph {
 public:
  OpGraph() = default;

  // Adds an operation; name must be unique. Returns its id.
  OpId AddOp(OpDef op);

  // Adds an edge carrying `bytes` (default: producer output size).
  void AddEdge(OpId src, OpId dst, std::int64_t bytes = -1);

  int num_ops() const { return static_cast<int>(ops_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const OpDef& op(OpId id) const;
  OpDef& mutable_op(OpId id);
  const std::vector<OpDef>& ops() const { return ops_; }
  const std::vector<Edge>& edges() const { return edges_; }

  // Out-/in-edge indices (into edges()) per op.
  const std::vector<std::int32_t>& out_edges(OpId id) const;
  const std::vector<std::int32_t>& in_edges(OpId id) const;

  // Looks up an op id by name; kInvalidOp if absent.
  OpId FindOp(std::string_view name) const;

  // Kahn topological order. Throws if the graph has a cycle.
  std::vector<OpId> TopologicalOrder() const;

  // True iff acyclic (non-throwing variant of the above).
  bool IsDag() const;

  // Ops with no in-edges / no out-edges.
  std::vector<OpId> SourceOps() const;
  std::vector<OpId> SinkOps() const;

  // Aggregates used by benches and the cost model.
  double TotalFlops() const;
  std::int64_t TotalParamBytes() const;
  std::int64_t TotalEdgeBytes() const;

  // Longest path length in ops (critical path by count), for stats.
  int CriticalPathLength() const;

  struct Stats {
    int num_ops = 0;
    int num_edges = 0;
    double total_gflops = 0.0;
    double param_gbytes = 0.0;
    double edge_gbytes = 0.0;
    int critical_path = 0;
    int cpu_only_ops = 0;
  };
  Stats Summarize() const;
  std::string StatsString() const;

 private:
  void CheckId(OpId id) const;

  std::vector<OpDef> ops_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::int32_t>> out_edges_;
  std::vector<std::vector<std::int32_t>> in_edges_;
  // Transparent hashing: FindOp looks a std::string_view up without
  // building a string from it.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::unordered_map<std::string, OpId, NameHash, std::equal_to<>> by_name_;
};

// An op → group assignment: grouping[op] ∈ [0, num_groups). The
// hierarchical agents (§III-A) place groups, never single ops; groups may
// be empty.
using Grouping = std::vector<std::int32_t>;

// Throws std::logic_error unless `grouping` covers every op of `graph` and
// names only groups in [0, num_groups).
void ValidateGrouping(const OpGraph& graph, const Grouping& grouping,
                      int num_groups);

}  // namespace eagle::graph
