// GroupedGraph: the quotient graph induced by an op → group assignment.
//
// The hierarchical model (§III-A) never places individual operations; the
// grouper maps every op to one of k groups and the placer sees only the
// group-level graph. This type aggregates per-group resource demands and
// inter-group traffic; sim::Placement::FromGroups turns a per-group device
// decision back into a per-op placement.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/op_graph.h"

namespace eagle::graph {

// grouping[op] ∈ [0, num_groups). Groups may be empty.
using Grouping = std::vector<std::int32_t>;

class GroupedGraph {
 public:
  GroupedGraph(const OpGraph& graph, Grouping grouping, int num_groups);

  int num_groups() const { return num_groups_; }
  const Grouping& grouping() const { return grouping_; }
  const OpGraph& graph() const { return *graph_; }

  struct GroupInfo {
    int num_ops = 0;
    double flops = 0.0;
    std::int64_t param_bytes = 0;
    std::int64_t output_bytes = 0;       // sum of member output sizes
    bool has_cpu_only = false;           // member pinned to CPU
    std::array<std::int32_t, kNumOpTypes> type_counts{};
  };

  const GroupInfo& group(int g) const;
  const std::vector<GroupInfo>& groups() const { return groups_; }

  // Bytes flowing group g → group h (0 when g == h or no edge).
  std::int64_t TrafficBetween(int g, int h) const;

  // Dense num_groups × num_groups traffic matrix, row-major.
  const std::vector<std::int64_t>& traffic_matrix() const { return traffic_; }

  // Total bytes crossing group boundaries (the grouping's edge cut).
  std::int64_t CutBytes() const;

  // Member op ids per group.
  const std::vector<std::vector<OpId>>& members() const { return members_; }

 private:
  const OpGraph* graph_;
  Grouping grouping_;
  int num_groups_;
  std::vector<GroupInfo> groups_;
  std::vector<std::vector<OpId>> members_;
  std::vector<std::int64_t> traffic_;  // row-major [g * num_groups + h]
};

// Validates grouping size/range against the graph; throws on violation.
void ValidateGrouping(const OpGraph& graph, const Grouping& grouping,
                      int num_groups);

}  // namespace eagle::graph
