#include "partition/partition.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace eagle::partition {

std::int64_t WeightedGraph::total_vertex_weight() const {
  std::int64_t total = 0;
  for (auto w : vwgt) total += w;
  return total;
}

WeightedGraph BuildWeightedGraph(const graph::OpGraph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_ops());
  const std::vector<graph::Edge>& edges = graph.edges();
  // Counting sort of both directions of every edge into per-vertex rows.
  std::vector<std::int32_t> row_start(n + 1, 0);
  for (const auto& e : edges) {
    ++row_start[static_cast<std::size_t>(e.src) + 1];
    ++row_start[static_cast<std::size_t>(e.dst) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) row_start[v + 1] += row_start[v];
  std::vector<std::pair<std::int32_t, std::int64_t>> entries(2 * edges.size());
  std::vector<std::int32_t> fill(row_start.begin(), row_start.end() - 1);
  for (const auto& e : edges) {
    entries[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.src)]++)] =
        {e.dst, e.bytes};
    entries[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.dst)]++)] =
        {e.src, e.bytes};
  }
  // Each row sorted by neighbor id with parallel/bidirectional edges merged
  // is the row a per-vertex std::map would give: the sums are int64, so the
  // order they are added in cannot change them.
  WeightedGraph wg;
  wg.xadj.reserve(n + 1);
  wg.xadj.push_back(0);
  wg.vwgt.assign(n, 1);
  wg.adjncy.reserve(entries.size());
  wg.adjwgt.reserve(entries.size());
  for (std::size_t v = 0; v < n; ++v) {
    const auto begin = entries.begin() + row_start[v];
    const auto end = entries.begin() + row_start[v + 1];
    std::sort(begin, end, [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    const std::size_t row = wg.adjncy.size();
    for (auto it = begin; it != end; ++it) {
      if (wg.adjncy.size() > row && wg.adjncy.back() == it->first) {
        wg.adjwgt.back() += it->second;
      } else {
        wg.adjncy.push_back(it->first);
        wg.adjwgt.push_back(it->second);
      }
    }
    // Zero-byte edges still express structure; floor at 1 so matching and
    // min-cut see them.
    for (std::size_t i = row; i < wg.adjwgt.size(); ++i) {
      wg.adjwgt[i] = std::max<std::int64_t>(wg.adjwgt[i], 1);
    }
    wg.xadj.push_back(static_cast<std::int32_t>(wg.adjncy.size()));
  }
  return wg;
}

void ValidatePartitioning(const WeightedGraph& graph, const Partitioning& part,
                          int num_parts) {
  EAGLE_CHECK_MSG(static_cast<int>(part.size()) == graph.num_vertices(),
                  "partitioning size mismatch");
  for (auto p : part) {
    EAGLE_CHECK_MSG(p >= 0 && p < num_parts, "part id " << p << " invalid");
  }
}

std::int64_t CutWeight(const WeightedGraph& graph, const Partitioning& part) {
  std::int64_t cut = 0;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
         i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
      const std::int32_t u = graph.adjncy[static_cast<std::size_t>(i)];
      if (u > v && part[static_cast<std::size_t>(v)] !=
                       part[static_cast<std::size_t>(u)]) {
        cut += graph.adjwgt[static_cast<std::size_t>(i)];
      }
    }
  }
  return cut;
}

PartitionMetrics ComputeMetrics(const WeightedGraph& graph,
                                const Partitioning& part, int num_parts) {
  ValidatePartitioning(graph, part, num_parts);
  PartitionMetrics m;
  m.part_weights.assign(static_cast<std::size_t>(num_parts), 0);
  for (int v = 0; v < graph.num_vertices(); ++v) {
    m.part_weights[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
        graph.vwgt[static_cast<std::size_t>(v)];
  }
  for (auto w : m.part_weights) {
    if (w > 0) m.num_nonempty++;
  }
  m.cut_weight = CutWeight(graph, part);
  const double ideal = static_cast<double>(graph.total_vertex_weight()) /
                       std::max(1, num_parts);
  const std::int64_t max_weight =
      *std::max_element(m.part_weights.begin(), m.part_weights.end());
  m.balance = ideal > 0.0 ? static_cast<double>(max_weight) / ideal : 0.0;
  return m;
}

}  // namespace eagle::partition
