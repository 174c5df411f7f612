#include "core/expert_policies.h"

#include <string>
#include <vector>

#include "partition/metis_like.h"
#include "support/check.h"

namespace eagle::core {

sim::Placement SingleGpuPlacement(const graph::OpGraph& graph,
                                  const sim::ClusterSpec& cluster) {
  const auto gpus = cluster.Gpus();
  EAGLE_CHECK_MSG(!gpus.empty(), "cluster has no GPU");
  return sim::Placement::AllOnDevice(graph, cluster, gpus.front());
}

sim::Placement MetisBalancedPlacement(const graph::OpGraph& graph,
                                      const sim::ClusterSpec& cluster,
                                      std::uint64_t seed) {
  const auto gpus = cluster.Gpus();
  EAGLE_CHECK_MSG(!gpus.empty(), "cluster has no GPU");
  partition::MetisOptions options;
  options.num_parts = 4 * cluster.num_devices();
  options.seed = seed;
  std::vector<sim::DeviceId> group_devices(
      static_cast<std::size_t>(options.num_parts));
  for (std::size_t g = 0; g < group_devices.size(); ++g) {
    group_devices[g] = gpus[g % gpus.size()];
  }
  return sim::Placement::FromGroups(
      graph, cluster, partition::MetisPartition(graph, options),
      group_devices);
}

namespace {

// GNMT expert: layers striped across the 4 GPUs following tf/nmt's
// colocate-layer convention. Embeddings stay on CPU (pinned anyway).
sim::DeviceId GnmtExpertDevice(const std::string& layer,
                               const std::vector<sim::DeviceId>& gpus) {
  const auto gpu = [&gpus](std::size_t i) {
    return gpus[i % gpus.size()];
  };
  if (layer.rfind("encoder/lstm0", 0) == 0 ||
      layer.rfind("encoder/lstm1", 0) == 0) {
    return gpu(0);
  }
  if (layer.rfind("encoder/lstm", 0) == 0) return gpu(1);
  if (layer.rfind("decoder/lstm0", 0) == 0 ||
      layer.rfind("decoder/lstm1", 0) == 0 || layer == "attention") {
    return gpu(2);
  }
  if (layer.rfind("decoder/lstm", 0) == 0 || layer == "softmax") {
    return gpu(3);
  }
  return gpu(0);  // embeddings etc. (cpu-pinned ops are normalized later)
}

}  // namespace

std::optional<sim::Placement> HumanExpertPlacement(
    models::Benchmark benchmark, const graph::OpGraph& graph,
    const sim::ClusterSpec& cluster) {
  const auto gpus = cluster.Gpus();
  EAGLE_CHECK(!gpus.empty());
  switch (benchmark) {
    case models::Benchmark::kInceptionV3:
      // TF-Slim: the whole tower on one GPU, data pipeline on CPU.
      return SingleGpuPlacement(graph, cluster);
    case models::Benchmark::kGNMT: {
      std::vector<sim::DeviceId> devices(
          static_cast<std::size_t>(graph.num_ops()));
      for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
        devices[static_cast<std::size_t>(i)] =
            GnmtExpertDevice(graph.op(i).layer, gpus);
      }
      sim::Placement placement(graph, std::move(devices));
      placement.Normalize(graph, cluster);
      return placement;
    }
    case models::Benchmark::kBertBase:
      // No published model-parallel expert placement exists (§IV-B).
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace eagle::core
