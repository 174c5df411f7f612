// The agents' state vectors, built straight into tensors. The paper counts
// "reconstructing the state vectors fed into the RL agent" (§I) among
// EAGLE's optimizations; FeatureMode picks the encoding:
//   - kRaw:            HP-style raw counts and byte sums;
//   - kReconstructed:  EAGLE-style log-scaled volumes and degree-normalized
//                      adjacency, which keep features in a small dynamic
//                      range across models whose tensors span 6 orders of
//                      magnitude.
// Per-op features feed the grouper; per-group embeddings (§III-C: "the
// number of operations of each operation type in the group, the output
// shapes, and the adjacency information") and the group adjacency feed
// the placer.
#pragma once

#include <cstdint>
#include <vector>

#include "core/run_config.h"
#include "graph/op_graph.h"
#include "nn/tensor.h"

namespace eagle::core {

// Per-op feature dimensionality: one-hot type + [log out bytes, log flops,
// log param bytes, in degree, out degree, cpu_only, topo position, depth].
// The last two are the adjacency/position part of the paper's grouper
// input: without them two ops of the same type and shape are
// indistinguishable and a learned grouper cannot form topologically
// contiguous (communication-cheap) groups.
inline constexpr int OpFeatureDim() { return graph::kNumOpTypes + 8; }

// num_ops × OpFeatureDim() tensor (grouper input).
nn::Tensor MakeOpFeatures(const graph::OpGraph& graph, FeatureMode mode);

// Per-group embedding width: type histogram + [log ops, log flops, log out
// bytes, log param bytes, has_cpu_only] + optional adjacency row over the
// groups.
inline constexpr int GroupEmbeddingDim(int num_groups,
                                       bool include_adjacency) {
  return graph::kNumOpTypes + 5 + (include_adjacency ? num_groups : 0);
}

// The per-op columns a group embedding sums (type, FLOPs, parameter and
// output bytes, CPU pinning), read from the graph once. A learned grouper
// embeds the grouping of every sample it draws or scores; the columns
// spare each of those a walk over the OpDefs and their shapes.
class GroupEmbedder {
 public:
  GroupEmbedder() = default;
  explicit GroupEmbedder(const graph::OpGraph& graph);

  // num_groups × GroupEmbeddingDim tensor from a grouping of the graph.
  // include_adjacency=false for the GCN placer (it gets Â separately).
  // Throws std::logic_error on a grouping graph::ValidateGrouping rejects.
  nn::Tensor Embed(const graph::Grouping& grouping, int num_groups,
                   FeatureMode mode, bool include_adjacency) const;

 private:
  const graph::OpGraph* graph_ = nullptr;
  std::vector<graph::OpType> type_;
  std::vector<double> flops_;
  std::vector<std::int64_t> param_bytes_;
  std::vector<std::int64_t> output_bytes_;
  std::vector<bool> cpu_only_;
};

// GroupEmbedder(graph).Embed(...), for a single grouping.
nn::Tensor MakeGroupEmbeddings(const graph::OpGraph& graph,
                               const graph::Grouping& grouping,
                               int num_groups, FeatureMode mode,
                               bool include_adjacency);

// Symmetric, row-normalized group adjacency with self-loops (Â of Kipf &
// Welling), num_groups × num_groups: the GCN placer's input. Throws like
// MakeGroupEmbeddings.
nn::Tensor MakeGroupAdjacency(const graph::OpGraph& graph,
                              const graph::Grouping& grouping,
                              int num_groups);

}  // namespace eagle::core
