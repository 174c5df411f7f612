#include "graph/grouped_graph.h"

#include "support/check.h"

namespace eagle::graph {

void ValidateGrouping(const OpGraph& graph, const Grouping& grouping,
                      int num_groups) {
  EAGLE_CHECK_MSG(static_cast<int>(grouping.size()) == graph.num_ops(),
                  "grouping size " << grouping.size() << " != num ops "
                                   << graph.num_ops());
  EAGLE_CHECK(num_groups > 0);
  for (std::size_t i = 0; i < grouping.size(); ++i) {
    EAGLE_CHECK_MSG(grouping[i] >= 0 && grouping[i] < num_groups,
                    "op " << i << " assigned to invalid group "
                          << grouping[i]);
  }
}

GroupedGraph::GroupedGraph(const OpGraph& graph, Grouping grouping,
                           int num_groups)
    : graph_(&graph),
      grouping_(std::move(grouping)),
      num_groups_(num_groups),
      groups_(static_cast<std::size_t>(num_groups)),
      members_(static_cast<std::size_t>(num_groups)),
      traffic_(static_cast<std::size_t>(num_groups) *
                   static_cast<std::size_t>(num_groups),
               0) {
  ValidateGrouping(graph, grouping_, num_groups_);
  for (OpId i = 0; i < graph.num_ops(); ++i) {
    const OpDef& op = graph.op(i);
    const int g = grouping_[static_cast<std::size_t>(i)];
    GroupInfo& info = groups_[static_cast<std::size_t>(g)];
    info.num_ops++;
    info.flops += op.flops;
    info.param_bytes += op.param_bytes;
    info.output_bytes += op.output_bytes();
    info.has_cpu_only |= op.cpu_only;
    info.type_counts[static_cast<std::size_t>(op.type)]++;
    members_[static_cast<std::size_t>(g)].push_back(i);
  }
  for (const Edge& e : graph.edges()) {
    const int g = grouping_[static_cast<std::size_t>(e.src)];
    const int h = grouping_[static_cast<std::size_t>(e.dst)];
    if (g != h) {
      traffic_[static_cast<std::size_t>(g) *
                   static_cast<std::size_t>(num_groups_) +
               static_cast<std::size_t>(h)] += e.bytes;
    }
  }
}

const GroupedGraph::GroupInfo& GroupedGraph::group(int g) const {
  EAGLE_CHECK(g >= 0 && g < num_groups_);
  return groups_[static_cast<std::size_t>(g)];
}

std::int64_t GroupedGraph::TrafficBetween(int g, int h) const {
  EAGLE_CHECK(g >= 0 && g < num_groups_ && h >= 0 && h < num_groups_);
  return traffic_[static_cast<std::size_t>(g) *
                      static_cast<std::size_t>(num_groups_) +
                  static_cast<std::size_t>(h)];
}

std::int64_t GroupedGraph::CutBytes() const {
  std::int64_t total = 0;
  for (auto b : traffic_) total += b;
  return total;
}

}  // namespace eagle::graph
