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

// What Normalize does to a graph's placements, worked out once per graph.
// source[op] is the op whose device `op` takes — its colocation group's
// first op, or itself when ungrouped — or kOnCpu when `op` or any member
// of its group is cpu_only. A group's first op never comes after its
// members, so one ascending pass applies the plan in place.
struct NormalizationPlan {
  static constexpr graph::OpId kOnCpu = -1;
  std::vector<graph::OpId> source;
};

// One pass over the ops; each group's first op is found by group id
// through a hash table (imported ids range up to 2^31-1, so they cannot
// index a table themselves).
NormalizationPlan PlanNormalization(const graph::OpGraph& graph);

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
  // The same against a plan the caller keeps for its graph.
  static Placement FromGroups(const NormalizationPlan& plan,
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

  // Applies cpu-pinning and colocation constraints in place. Throws
  // std::logic_error when a device id is out of range or the cluster has
  // no CPU.
  void Normalize(const graph::OpGraph& graph, const ClusterSpec& cluster);
  void Normalize(const NormalizationPlan& plan, const ClusterSpec& cluster);

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
