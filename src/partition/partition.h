// Graph-partitioning substrate (§III-B): heuristic groupers that the paper
// benchmarks against the learned feed-forward grouper.
//
// Partitioners operate on an undirected weighted view of the OpGraph where
// edge weights are communication bytes — "the amount of data needed to be
// transmitted from the source to the destination operation".
#pragma once

#include <cstdint>
#include <vector>

#include "graph/op_graph.h"

namespace eagle::partition {

// Same encoding as graph::Grouping: part id per op.
using Partitioning = graph::Grouping;

// Undirected weighted graph in CSR form.
struct WeightedGraph {
  std::vector<std::int32_t> xadj;    // size n+1
  std::vector<std::int32_t> adjncy;  // neighbor ids
  std::vector<std::int64_t> adjwgt;  // edge weights (bytes)
  std::vector<std::int64_t> vwgt;    // vertex weights

  int num_vertices() const { return static_cast<int>(xadj.size()) - 1; }
  std::int64_t total_vertex_weight() const;
};

// Collapses the OpGraph into an undirected weighted graph (parallel edges
// merged, weights summed in both directions). Vertex weight is 1 per op —
// the partitioners balance op counts, as the paper's METIS setup does.
WeightedGraph BuildWeightedGraph(const graph::OpGraph& graph);

struct PartitionMetrics {
  std::int64_t cut_weight = 0;   // total weight of cut edges
  double balance = 0.0;          // max part weight / ideal part weight
  int num_nonempty = 0;
  std::vector<std::int64_t> part_weights;
};

PartitionMetrics ComputeMetrics(const WeightedGraph& graph,
                                const Partitioning& part, int num_parts);

// Cut weight alone (cheap inner-loop variant).
std::int64_t CutWeight(const WeightedGraph& graph, const Partitioning& part);

// Validates ids in [0, num_parts) and size == vertices; throws otherwise.
void ValidatePartitioning(const WeightedGraph& graph,
                          const Partitioning& part, int num_parts);

}  // namespace eagle::partition
