// Placement: the op → device mapping the agents optimize.
//
// Placements are normalized before simulation: CPU-pinned ops are forced
// to the CPU device and TensorFlow-style colocation groups are collapsed
// onto their leader's device (variables colocate with their optimizer
// update op).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/op_graph.h"
#include "sim/device.h"

namespace eagle::sim {

class Placement {
 public:
  Placement() = default;
  Placement(const graph::OpGraph& graph, std::vector<DeviceId> device_per_op);

  // Every op on `device` (cpu_only ops still forced to CPU).
  static Placement AllOnDevice(const graph::OpGraph& graph,
                               const ClusterSpec& cluster, DeviceId device);

  // Expands a per-group device decision — every op in group g goes to
  // group_devices[g] — into a normalized per-op placement. Throws
  // std::logic_error when the grouping does not cover the graph or names
  // a group group_devices has no device for.
  static Placement FromGroups(const graph::OpGraph& graph,
                              const ClusterSpec& cluster,
                              const graph::Grouping& grouping,
                              const std::vector<DeviceId>& group_devices);

  // Rebuilds a placement from a raw device vector without constraint
  // checks — for deserializing already-normalized placements from
  // checkpoints.
  static Placement FromRaw(std::vector<DeviceId> devices) {
    Placement placement;
    placement.devices_ = std::move(devices);
    return placement;
  }

  int num_ops() const { return static_cast<int>(devices_.size()); }
  DeviceId device(graph::OpId op) const;
  const std::vector<DeviceId>& devices() const { return devices_; }

  // Applies cpu-pinning and colocation constraints in place.
  void Normalize(const graph::OpGraph& graph, const ClusterSpec& cluster);

  // Per-device op counts (after normalization) — used in reports.
  std::vector<int> OpsPerDevice(const ClusterSpec& cluster) const;

  // Stable 64-bit content hash (for the environment's evaluation cache).
  std::uint64_t Hash() const;

  std::string ToString(const graph::OpGraph& graph,
                       const ClusterSpec& cluster) const;

 private:
  std::vector<DeviceId> devices_;
};

}  // namespace eagle::sim
