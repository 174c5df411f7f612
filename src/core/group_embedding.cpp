#include "core/group_embedding.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace eagle::core {

namespace {

// Compresses byte/FLOP magnitudes into ~[0, 4.5]; raw mode divides by a
// fixed scale instead, which leaves large models with huge feature values
// (one of HP's training pathologies EAGLE fixes).
float Scale(double v, FeatureMode mode) {
  if (mode == FeatureMode::kReconstructed) {
    return static_cast<float>(std::log1p(v) / 10.0);
  }
  return static_cast<float>(v / 1e8);
}

// Counts (ops, degrees) are log-compressed only in reconstructed mode.
float Count(double v, FeatureMode mode) {
  return static_cast<float>(mode == FeatureMode::kReconstructed ? std::log1p(v)
                                                                : v);
}

// Bytes exchanged between groups g and h in either direction, row-major
// k × k: symmetric, zero on the diagonal. One pass over the edges adds
// each to its direction's cell, then each pair of cells takes their sum
// (integer sums: the order does not matter).
std::vector<std::int64_t> GroupTraffic(const graph::OpGraph& graph,
                                       const graph::Grouping& grouping,
                                       int k) {
  const auto n = static_cast<std::size_t>(k);
  std::vector<std::int64_t> traffic(n * n, 0);
  for (const graph::Edge& e : graph.edges()) {
    const auto g = static_cast<std::size_t>(
        grouping[static_cast<std::size_t>(e.src)]);
    const auto h = static_cast<std::size_t>(
        grouping[static_cast<std::size_t>(e.dst)]);
    if (g != h) traffic[g * n + h] += e.bytes;
  }
  for (std::size_t g = 0; g < n; ++g) {
    for (std::size_t h = g + 1; h < n; ++h) {
      const std::int64_t both = traffic[g * n + h] + traffic[h * n + g];
      traffic[g * n + h] = both;
      traffic[h * n + g] = both;
    }
  }
  return traffic;
}

}  // namespace

nn::Tensor MakeOpFeatures(const graph::OpGraph& graph, FeatureMode mode) {
  const int num_ops = graph.num_ops();
  nn::Tensor out(num_ops, OpFeatureDim());
  // Positional features: normalized topological rank and normalized
  // longest-path depth from the sources.
  const auto topo = graph.TopologicalOrder();
  std::vector<float> rank(static_cast<std::size_t>(num_ops), 0.0f);
  std::vector<int> depth(static_cast<std::size_t>(num_ops), 0);
  int max_depth = 1;
  for (std::size_t pos = 0; pos < topo.size(); ++pos) {
    const graph::OpId u = topo[pos];
    rank[static_cast<std::size_t>(u)] =
        topo.size() > 1
            ? static_cast<float>(pos) / static_cast<float>(topo.size() - 1)
            : 0.0f;
    for (auto ei : graph.out_edges(u)) {
      const graph::OpId v = graph.edges()[static_cast<std::size_t>(ei)].dst;
      depth[static_cast<std::size_t>(v)] =
          std::max(depth[static_cast<std::size_t>(v)],
                   depth[static_cast<std::size_t>(u)] + 1);
      max_depth = std::max(max_depth, depth[static_cast<std::size_t>(v)]);
    }
  }
  for (graph::OpId i = 0; i < num_ops; ++i) {
    const graph::OpDef& op = graph.op(i);
    float* row = out.row(i);
    row[static_cast<int>(op.type)] = 1.0f;
    float* extra = row + graph::kNumOpTypes;
    extra[0] = Scale(static_cast<double>(op.output_bytes()), mode);
    extra[1] = Scale(op.flops, mode);
    extra[2] = Scale(static_cast<double>(op.param_bytes), mode);
    extra[3] = Count(static_cast<double>(graph.in_edges(i).size()), mode);
    extra[4] = Count(static_cast<double>(graph.out_edges(i).size()), mode);
    extra[5] = op.cpu_only ? 1.0f : 0.0f;
    extra[6] = rank[static_cast<std::size_t>(i)];
    extra[7] = static_cast<float>(depth[static_cast<std::size_t>(i)]) /
               static_cast<float>(max_depth);
  }
  return out;
}

GroupEmbedder::GroupEmbedder(const graph::OpGraph& graph) : graph_(&graph) {
  const auto num_ops = static_cast<std::size_t>(graph.num_ops());
  type_.reserve(num_ops);
  flops_.reserve(num_ops);
  param_bytes_.reserve(num_ops);
  output_bytes_.reserve(num_ops);
  cpu_only_.reserve(num_ops);
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    const graph::OpDef& op = graph.op(i);
    type_.push_back(op.type);
    flops_.push_back(op.flops);
    param_bytes_.push_back(op.param_bytes);
    output_bytes_.push_back(op.output_bytes());
    cpu_only_.push_back(op.cpu_only);
  }
}

nn::Tensor MakeGroupEmbeddings(const graph::OpGraph& graph,
                               const graph::Grouping& grouping,
                               int num_groups, FeatureMode mode,
                               bool include_adjacency) {
  return GroupEmbedder(graph).Embed(grouping, num_groups, mode,
                                    include_adjacency);
}

nn::Tensor GroupEmbedder::Embed(const graph::Grouping& grouping,
                                int num_groups, FeatureMode mode,
                                bool include_adjacency) const {
  const graph::OpGraph& graph = *graph_;
  graph::ValidateGrouping(graph, grouping, num_groups);
  struct Totals {
    int num_ops = 0;
    double flops = 0.0;
    std::int64_t param_bytes = 0;
    std::int64_t output_bytes = 0;
    bool has_cpu_only = false;
    std::array<std::int32_t, graph::kNumOpTypes> type_counts{};
  };
  std::vector<Totals> totals(static_cast<std::size_t>(num_groups));
  for (std::size_t i = 0; i < grouping.size(); ++i) {
    Totals& t = totals[static_cast<std::size_t>(grouping[i])];
    t.num_ops++;
    t.flops += flops_[i];
    t.param_bytes += param_bytes_[i];
    t.output_bytes += output_bytes_[i];
    t.has_cpu_only |= cpu_only_[i];
    t.type_counts[static_cast<std::size_t>(type_[i])]++;
  }
  const std::vector<std::int64_t> traffic =
      include_adjacency ? GroupTraffic(graph, grouping, num_groups)
                        : std::vector<std::int64_t>();

  nn::Tensor out(num_groups, GroupEmbeddingDim(num_groups, include_adjacency));
  for (int g = 0; g < num_groups; ++g) {
    const Totals& t = totals[static_cast<std::size_t>(g)];
    float* row = out.row(g);
    for (int type = 0; type < graph::kNumOpTypes; ++type) {
      row[type] = Count(
          static_cast<double>(t.type_counts[static_cast<std::size_t>(type)]),
          mode);
    }
    float* extra = row + graph::kNumOpTypes;
    extra[0] = Count(static_cast<double>(t.num_ops), mode);
    extra[1] = Scale(t.flops, mode);
    extra[2] = Scale(static_cast<double>(t.output_bytes), mode);
    extra[3] = Scale(static_cast<double>(t.param_bytes), mode);
    extra[4] = t.has_cpu_only ? 1.0f : 0.0f;
    if (include_adjacency) {
      // Reconstructed: g's share of its traffic with each group.
      const std::int64_t* bytes =
          traffic.data() +
          static_cast<std::size_t>(g) * static_cast<std::size_t>(num_groups);
      float* adj = extra + 5;
      double total = 0.0;
      for (int h = 0; h < num_groups; ++h) {
        total += static_cast<double>(bytes[h]);
      }
      for (int h = 0; h < num_groups; ++h) {
        const double w = static_cast<double>(bytes[h]);
        if (mode == FeatureMode::kReconstructed) {
          adj[h] = total > 0.0 ? static_cast<float>(w / total) : 0.0f;
        } else {
          adj[h] = Scale(w, mode);
        }
      }
    }
  }
  return out;
}

nn::Tensor MakeGroupAdjacency(const graph::OpGraph& graph,
                              const graph::Grouping& grouping,
                              int num_groups) {
  graph::ValidateGrouping(graph, grouping, num_groups);
  const std::vector<std::int64_t> traffic =
      GroupTraffic(graph, grouping, num_groups);
  // Binarized connectivity plus self loops keeps the spectrum
  // well-conditioned; traffic magnitudes already live in the node
  // features.
  const auto connected = [&](int g, int h) {
    return g == h ||
           traffic[static_cast<std::size_t>(g) *
                       static_cast<std::size_t>(num_groups) +
                   static_cast<std::size_t>(h)] > 0;
  };
  std::vector<double> degree(static_cast<std::size_t>(num_groups), 0.0);
  for (int g = 0; g < num_groups; ++g) {
    for (int h = 0; h < num_groups; ++h) {
      if (connected(g, h)) degree[static_cast<std::size_t>(g)] += 1.0;
    }
  }
  // D^{-1/2} A D^{-1/2}
  nn::Tensor out(num_groups, num_groups);
  for (int g = 0; g < num_groups; ++g) {
    for (int h = 0; h < num_groups; ++h) {
      if (connected(g, h)) {
        out.at(g, h) = static_cast<float>(
            1.0 / std::sqrt(degree[static_cast<std::size_t>(g)] *
                            degree[static_cast<std::size_t>(h)]));
      }
    }
  }
  return out;
}

}  // namespace eagle::core
