#include "partition/coarsen.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "support/check.h"

namespace eagle::partition {

CoarseLevel CoarsenOnce(const WeightedGraph& graph, support::Rng& rng) {
  const int n = graph.num_vertices();
  std::vector<std::int32_t> match(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  for (std::int32_t v : order) {
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    std::int32_t best = -1;
    std::int64_t best_weight = -1;
    for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
         i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
      const std::int32_t u = graph.adjncy[static_cast<std::size_t>(i)];
      if (match[static_cast<std::size_t>(u)] != -1 || u == v) continue;
      const std::int64_t w = graph.adjwgt[static_cast<std::size_t>(i)];
      if (w > best_weight) {
        best_weight = w;
        best = u;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // stays single
    }
  }

  // Coarse ids in order of each pair's smaller member; `members` keeps
  // both (the second is -1 for a vertex that stays single).
  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::array<std::int32_t, 2>> members;
  members.reserve(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    const std::int32_t m = match[static_cast<std::size_t>(v)];
    const auto next = static_cast<std::int32_t>(members.size());
    level.fine_to_coarse[static_cast<std::size_t>(v)] = next;
    if (m != v) level.fine_to_coarse[static_cast<std::size_t>(m)] = next;
    members.push_back({v, m != v ? m : -1});
  }

  // Build the coarse graph with merged edges: each coarse row gathers its
  // members' rows through a dense position marker (reset after the row),
  // then sorts by neighbor id, the order a per-row std::map iterates in.
  // The merged weights are int64 sums, which no order of addition changes.
  const std::size_t next = members.size();
  WeightedGraph& coarse = level.graph;
  coarse.vwgt.assign(next, 0);
  coarse.xadj.reserve(next + 1);
  coarse.xadj.push_back(0);
  coarse.adjncy.reserve(graph.adjncy.size());
  coarse.adjwgt.reserve(graph.adjwgt.size());
  std::vector<std::int32_t> position(next, -1);
  std::vector<std::pair<std::int32_t, std::int64_t>> row;
  for (std::size_t cv = 0; cv < next; ++cv) {
    for (std::int32_t v : members[cv]) {
      if (v < 0) continue;
      coarse.vwgt[cv] += graph.vwgt[static_cast<std::size_t>(v)];
      for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
           i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
        const std::int32_t cu = level.fine_to_coarse[static_cast<std::size_t>(
            graph.adjncy[static_cast<std::size_t>(i)])];
        if (static_cast<std::size_t>(cu) == cv) continue;
        std::int32_t& at = position[static_cast<std::size_t>(cu)];
        const std::int64_t w = graph.adjwgt[static_cast<std::size_t>(i)];
        if (at < 0) {
          at = static_cast<std::int32_t>(row.size());
          row.emplace_back(cu, w);
        } else {
          row[static_cast<std::size_t>(at)].second += w;
        }
      }
    }
    std::sort(row.begin(), row.end());  // ids are unique after the merge
    for (const auto& [cu, w] : row) {
      coarse.adjncy.push_back(cu);
      coarse.adjwgt.push_back(w);
      position[static_cast<std::size_t>(cu)] = -1;
    }
    row.clear();
    coarse.xadj.push_back(static_cast<std::int32_t>(coarse.adjncy.size()));
  }
  return level;
}

std::vector<CoarseLevel> BuildHierarchy(const WeightedGraph& graph,
                                        int target_vertices,
                                        support::Rng& rng) {
  EAGLE_CHECK(target_vertices >= 1);
  std::vector<CoarseLevel> levels;
  const WeightedGraph* current = &graph;
  while (current->num_vertices() > target_vertices) {
    CoarseLevel level = CoarsenOnce(*current, rng);
    const int before = current->num_vertices();
    const int after = level.graph.num_vertices();
    levels.push_back(std::move(level));
    current = &levels.back().graph;
    if (after > before * 95 / 100) break;  // diminishing returns
  }
  return levels;
}

}  // namespace eagle::partition
