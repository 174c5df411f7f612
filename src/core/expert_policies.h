// Pre-defined placements: the Single-GPU and Human-Expert baselines of
// §IV-B.
//
//   Single GPU    — every op on one GPU, CPU-incompatible ops on the CPU;
//                   valid only when the model fits (Inception-V3).
//   Human Expert  — Inception-V3: the TF-Slim placement (everything on one
//                   GPU, input pipeline on CPU);
//                   GNMT: the tf/nmt convention — each LSTM layer,
//                   attention and softmax on a separate device, spread
//                   over the 4 GPUs via the layer tags in the graph;
//                   BERT: none (google-research/bert has no model-parallel
//                   multi-GPU placement — the paper reports OOM).
//   METIS-balanced — METIS groups (4 per device) round-robined over the
//                   GPUs. Deliberately speed- and topology-oblivious: the
//                   strongest non-learned baseline that needs no model
//                   knowledge.
//
// Every builder throws std::logic_error on a cluster without a GPU.
#pragma once

#include <cstdint>
#include <optional>

#include "models/zoo.h"
#include "sim/placement.h"

namespace eagle::core {

sim::Placement SingleGpuPlacement(const graph::OpGraph& graph,
                                  const sim::ClusterSpec& cluster);

sim::Placement MetisBalancedPlacement(const graph::OpGraph& graph,
                                      const sim::ClusterSpec& cluster,
                                      std::uint64_t seed);

std::optional<sim::Placement> HumanExpertPlacement(
    models::Benchmark benchmark, const graph::OpGraph& graph,
    const sim::ClusterSpec& cluster);

}  // namespace eagle::core
