// Frozen reference copies of the map-based weighted-graph builder and
// heavy-edge coarsening that the partitioner used before its rows were
// merged in sorted CSR form. test_partition holds the production
// BuildWeightedGraph / BuildHierarchy to these byte for byte (xadj,
// adjncy, adjwgt, vwgt, fine_to_coarse), as eagle_sim_naive does for the
// simulator. Do not optimize: the std::map iteration order is the
// definition of the row order the fast paths must reproduce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "graph/op_graph.h"
#include "partition/coarsen.h"
#include "partition/partition.h"
#include "support/check.h"
#include "support/rng.h"

namespace eagle::partition::oracle {

inline WeightedGraph BuildWeightedGraph(const graph::OpGraph& graph) {
  const int n = graph.num_ops();
  // Merge parallel/bidirectional edges.
  std::vector<std::map<std::int32_t, std::int64_t>> nbr(
      static_cast<std::size_t>(n));
  for (const auto& e : graph.edges()) {
    nbr[static_cast<std::size_t>(e.src)][e.dst] += e.bytes;
    nbr[static_cast<std::size_t>(e.dst)][e.src] += e.bytes;
  }
  WeightedGraph wg;
  wg.xadj.reserve(static_cast<std::size_t>(n) + 1);
  wg.xadj.push_back(0);
  wg.vwgt.assign(static_cast<std::size_t>(n), 1);
  for (int v = 0; v < n; ++v) {
    for (const auto& [u, w] : nbr[static_cast<std::size_t>(v)]) {
      wg.adjncy.push_back(u);
      // Zero-byte edges still express structure; floor at 1 so matching and
      // min-cut see them.
      wg.adjwgt.push_back(std::max<std::int64_t>(w, 1));
    }
    wg.xadj.push_back(static_cast<std::int32_t>(wg.adjncy.size()));
  }
  return wg;
}

inline CoarseLevel CoarsenOnce(const WeightedGraph& graph, support::Rng& rng) {
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

  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  std::int32_t next = 0;
  for (std::int32_t v = 0; v < n; ++v) {
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    const std::int32_t m = match[static_cast<std::size_t>(v)];
    level.fine_to_coarse[static_cast<std::size_t>(v)] = next;
    if (m != v) level.fine_to_coarse[static_cast<std::size_t>(m)] = next;
    ++next;
  }

  // Build the coarse graph with merged edges.
  std::vector<std::int64_t> vwgt(static_cast<std::size_t>(next), 0);
  std::vector<std::map<std::int32_t, std::int64_t>> nbr(
      static_cast<std::size_t>(next));
  for (std::int32_t v = 0; v < n; ++v) {
    const std::int32_t cv = level.fine_to_coarse[static_cast<std::size_t>(v)];
    vwgt[static_cast<std::size_t>(cv)] +=
        graph.vwgt[static_cast<std::size_t>(v)];
    for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
         i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
      const std::int32_t cu = level.fine_to_coarse[static_cast<std::size_t>(
          graph.adjncy[static_cast<std::size_t>(i)])];
      if (cu != cv) {
        nbr[static_cast<std::size_t>(cv)][cu] +=
            graph.adjwgt[static_cast<std::size_t>(i)];
      }
    }
  }
  level.graph.vwgt = std::move(vwgt);
  level.graph.xadj.push_back(0);
  for (std::int32_t cv = 0; cv < next; ++cv) {
    for (const auto& [cu, w] : nbr[static_cast<std::size_t>(cv)]) {
      level.graph.adjncy.push_back(cu);
      level.graph.adjwgt.push_back(w);
    }
    level.graph.xadj.push_back(
        static_cast<std::int32_t>(level.graph.adjncy.size()));
  }
  return level;
}

// partition::BuildHierarchy's loop over the oracle's CoarsenOnce.
inline std::vector<CoarseLevel> BuildHierarchy(const WeightedGraph& graph,
                                               int target_vertices,
                                               support::Rng& rng) {
  EAGLE_CHECK(target_vertices >= 1);
  std::vector<CoarseLevel> levels;
  const WeightedGraph* current = &graph;
  while (current->num_vertices() > target_vertices) {
    CoarseLevel level = oracle::CoarsenOnce(*current, rng);
    const int before = current->num_vertices();
    const int after = level.graph.num_vertices();
    levels.push_back(std::move(level));
    current = &levels.back().graph;
    if (after > before * 95 / 100) break;  // diminishing returns
  }
  return levels;
}

}  // namespace eagle::partition::oracle
