#include "partition/metis_like.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "partition/coarsen.h"
#include "partition/fm_refine.h"
#include "support/check.h"
#include "support/metrics.h"

namespace eagle::partition {

namespace {

// Greedy graph growing on the coarsest graph: seeds k regions and grows
// each breadth-first by heaviest connection until weight targets are met.
Partitioning InitialPartition(const WeightedGraph& graph, int k,
                              support::Rng& rng) {
  const int n = graph.num_vertices();
  Partitioning part(static_cast<std::size_t>(n), -1);
  if (k >= n) {
    // Trivial: one vertex per part (extra parts stay empty).
    for (int v = 0; v < n; ++v) part[static_cast<std::size_t>(v)] = v;
    return part;
  }
  const std::int64_t target =
      (graph.total_vertex_weight() + k - 1) / k;

  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  int next_seed_idx = 0;
  auto next_unassigned = [&]() -> std::int32_t {
    while (next_seed_idx < n &&
           part[static_cast<std::size_t>(order[static_cast<std::size_t>(
               next_seed_idx)])] != -1) {
      ++next_seed_idx;
    }
    return next_seed_idx < n
               ? order[static_cast<std::size_t>(next_seed_idx)]
               : -1;
  };

  for (int p = 0; p < k; ++p) {
    const std::int32_t seed = next_unassigned();
    if (seed < 0) break;
    std::int64_t weight = 0;
    std::deque<std::int32_t> frontier{seed};
    part[static_cast<std::size_t>(seed)] = p;
    while (!frontier.empty() && weight < target) {
      const std::int32_t v = frontier.front();
      frontier.pop_front();
      weight += graph.vwgt[static_cast<std::size_t>(v)];
      for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
           i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
        const std::int32_t u = graph.adjncy[static_cast<std::size_t>(i)];
        if (part[static_cast<std::size_t>(u)] == -1) {
          part[static_cast<std::size_t>(u)] = p;
          frontier.push_back(u);
        }
      }
    }
  }
  // Any leftovers join their most-connected part (or part 0).
  for (int v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] != -1) continue;
    std::int64_t best_w = -1;
    std::int32_t best_p = 0;
    for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
         i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
      const std::int32_t p = part[static_cast<std::size_t>(
          graph.adjncy[static_cast<std::size_t>(i)])];
      if (p >= 0 && graph.adjwgt[static_cast<std::size_t>(i)] > best_w) {
        best_w = graph.adjwgt[static_cast<std::size_t>(i)];
        best_p = p;
      }
    }
    part[static_cast<std::size_t>(v)] = best_p;
  }
  return part;
}

}  // namespace

Partitioning MetisPartitionWeighted(const WeightedGraph& graph,
                                    const MetisOptions& options) {
  EAGLE_CHECK(options.num_parts >= 1);
  support::Rng rng(options.seed);
  const int coarsen_target =
      std::max(options.coarsen_target, 4 * options.num_parts);

  auto hierarchy = BuildHierarchy(graph, coarsen_target, rng);
  const WeightedGraph& coarsest =
      hierarchy.empty() ? graph : hierarchy.back().graph;

  Partitioning part = InitialPartition(coarsest, options.num_parts, rng);
  RefineOptions refine{options.num_parts, options.balance_tolerance,
                       options.refine_passes};
  RefineKWay(coarsest, part, refine, rng);

  // Uncoarsen: project and refine at each finer level.
  for (auto it = hierarchy.rbegin(); it != hierarchy.rend(); ++it) {
    const WeightedGraph& finer =
        (it + 1) == hierarchy.rend() ? graph : (it + 1)->graph;
    Partitioning fine_part(static_cast<std::size_t>(finer.num_vertices()));
    for (int v = 0; v < finer.num_vertices(); ++v) {
      fine_part[static_cast<std::size_t>(v)] = part[static_cast<std::size_t>(
          it->fine_to_coarse[static_cast<std::size_t>(v)])];
    }
    part = std::move(fine_part);
    RefineKWay(finer, part, refine, rng);
  }
  ValidatePartitioning(graph, part, options.num_parts);
  return part;
}

Partitioning MetisPartition(const graph::OpGraph& graph,
                            const MetisOptions& options) {
  EAGLE_SPAN("partition.metis");
  return MetisPartitionWeighted(BuildWeightedGraph(graph), options);
}

}  // namespace eagle::partition
