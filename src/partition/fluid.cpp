#include "partition/fluid.h"

#include <algorithm>
#include <numeric>

#include "partition/fm_refine.h"
#include "support/check.h"
#include "support/metrics.h"

namespace eagle::partition {

Partitioning FluidCommunitiesWeighted(const WeightedGraph& graph,
                                      const FluidOptions& options) {
  const int n = graph.num_vertices();
  const int k = std::min(options.num_communities, std::max(1, n));
  support::Rng rng(options.seed);

  Partitioning community(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> size(static_cast<std::size_t>(k), 0);

  // Seed k random distinct vertices.
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  for (int c = 0; c < k; ++c) {
    community[static_cast<std::size_t>(order[static_cast<std::size_t>(c)])] = c;
    size[static_cast<std::size_t>(c)] = 1;
  }

  std::vector<double> density(static_cast<std::size_t>(k), 1.0);
  auto update_density = [&](int c) {
    density[static_cast<std::size_t>(c)] =
        size[static_cast<std::size_t>(c)] > 0
            ? 1.0 / size[static_cast<std::size_t>(c)]
            : 0.0;
  };

  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  bool changed = true;
  for (int iter = 0; iter < options.max_iterations && changed; ++iter) {
    changed = false;
    rng.Shuffle(order);
    for (std::int32_t v : order) {
      std::fill(weight.begin(), weight.end(), 0.0);
      const std::int32_t own = community[static_cast<std::size_t>(v)];
      if (own >= 0) weight[static_cast<std::size_t>(own)] +=
          density[static_cast<std::size_t>(own)];
      for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
           i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
        const std::int32_t c = community[static_cast<std::size_t>(
            graph.adjncy[static_cast<std::size_t>(i)])];
        if (c >= 0) {
          // Edge weight scales the pull, extending the unweighted original
          // to communication graphs.
          weight[static_cast<std::size_t>(c)] +=
              density[static_cast<std::size_t>(c)] *
              static_cast<double>(graph.adjwgt[static_cast<std::size_t>(i)]);
        }
      }
      std::int32_t best = own;
      double best_weight = own >= 0 ? weight[static_cast<std::size_t>(own)]
                                    : 0.0;
      for (std::int32_t c = 0; c < k; ++c) {
        if (weight[static_cast<std::size_t>(c)] > best_weight) {
          best_weight = weight[static_cast<std::size_t>(c)];
          best = c;
        }
      }
      if (best != own && best >= 0) {
        // A community never abandons its last vertex.
        if (own >= 0 && size[static_cast<std::size_t>(own)] <= 1) continue;
        if (own >= 0) {
          size[static_cast<std::size_t>(own)]--;
          update_density(own);
        }
        community[static_cast<std::size_t>(v)] = best;
        size[static_cast<std::size_t>(best)]++;
        update_density(best);
        changed = true;
      }
    }
  }

  // Unreached vertices join their most-connected community (or random).
  for (std::int32_t v = 0; v < n; ++v) {
    if (community[static_cast<std::size_t>(v)] >= 0) continue;
    std::int64_t best_w = -1;
    std::int32_t best_c = static_cast<std::int32_t>(rng.NextBelow(
        static_cast<std::uint64_t>(k)));
    for (std::int32_t i = graph.xadj[static_cast<std::size_t>(v)];
         i < graph.xadj[static_cast<std::size_t>(v) + 1]; ++i) {
      const std::int32_t c = community[static_cast<std::size_t>(
          graph.adjncy[static_cast<std::size_t>(i)])];
      if (c >= 0 && graph.adjwgt[static_cast<std::size_t>(i)] > best_w) {
        best_w = graph.adjwgt[static_cast<std::size_t>(i)];
        best_c = c;
      }
    }
    community[static_cast<std::size_t>(v)] = best_c;
  }

  if (options.balance) {
    RefineOptions refine{options.num_communities, options.balance_tolerance,
                         2};
    // One light refinement pass also repairs badly unbalanced communities
    // without destroying the density structure.
    RefineKWay(graph, community, refine, rng);
  }
  ValidatePartitioning(graph, community, options.num_communities);
  return community;
}

Partitioning FluidCommunities(const graph::OpGraph& graph,
                              const FluidOptions& options) {
  EAGLE_SPAN("partition.fluid");
  return FluidCommunitiesWeighted(BuildWeightedGraph(graph), options);
}

}  // namespace eagle::partition
