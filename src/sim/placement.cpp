#include "sim/placement.h"

#include <cstdint>
#include <sstream>

#include "support/check.h"

namespace eagle::sim {

Placement::Placement(const graph::OpGraph& graph,
                     std::vector<DeviceId> device_per_op)
    : devices_(std::move(device_per_op)) {
  EAGLE_CHECK_MSG(static_cast<int>(devices_.size()) == graph.num_ops(),
                  "placement covers " << devices_.size() << " ops, graph has "
                                      << graph.num_ops());
}

Placement Placement::AllOnDevice(const graph::OpGraph& graph,
                                 const ClusterSpec& cluster, DeviceId device) {
  EAGLE_CHECK(device >= 0 && device < cluster.num_devices());
  Placement placement(graph, std::vector<DeviceId>(
                                 static_cast<std::size_t>(graph.num_ops()),
                                 device));
  placement.Normalize(graph, cluster);
  return placement;
}

NormalizationPlan PlanNormalization(const graph::OpGraph& graph) {
  // Group id → first op, in an open-addressing table (Fibonacci hash,
  // linear probing) of 2·ops slots.
  const std::vector<graph::OpDef>& ops = graph.ops();
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * ops.size()) ++bits;
  struct Slot {
    std::int32_t group = -1;
    graph::OpId leader = 0;
  };
  std::vector<Slot> table(std::size_t{1} << bits);
  std::vector<bool> group_on_cpu(ops.size(), false);  // by leader
  NormalizationPlan plan;
  plan.source.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const graph::OpDef& op = ops[i];
    graph::OpId leader = static_cast<graph::OpId>(i);
    if (op.colocation_group >= 0) {
      std::size_t h = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(op.colocation_group) *
           0x9E3779B97F4A7C15ULL) >>
          (64 - bits));
      while (table[h].group >= 0 && table[h].group != op.colocation_group) {
        h = (h + 1) & (table.size() - 1);
      }
      if (table[h].group < 0) table[h] = Slot{op.colocation_group, leader};
      leader = table[h].leader;
    }
    if (op.cpu_only) group_on_cpu[static_cast<std::size_t>(leader)] = true;
    plan.source[i] = leader;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (group_on_cpu[static_cast<std::size_t>(plan.source[i])]) {
      plan.source[i] = NormalizationPlan::kOnCpu;
    }
  }
  return plan;
}

Placement Placement::FromGroups(const graph::OpGraph& graph,
                                const ClusterSpec& cluster,
                                const graph::Grouping& grouping,
                                const std::vector<DeviceId>& group_devices) {
  return FromGroups(PlanNormalization(graph), cluster, grouping,
                    group_devices);
}

Placement Placement::FromGroups(const NormalizationPlan& plan,
                                const ClusterSpec& cluster,
                                const graph::Grouping& grouping,
                                const std::vector<DeviceId>& group_devices) {
  EAGLE_CHECK_MSG(grouping.size() == plan.source.size(),
                  "grouping covers " << grouping.size() << " ops, graph has "
                                     << plan.source.size());
  Placement placement;
  placement.devices_.resize(grouping.size());
  for (std::size_t i = 0; i < grouping.size(); ++i) {
    const std::int32_t g = grouping[i];
    EAGLE_CHECK_MSG(g >= 0 && static_cast<std::size_t>(g) <
                                  group_devices.size(),
                    "op " << i << " assigned to group " << g << ", but "
                          << group_devices.size() << " groups have devices");
    placement.devices_[i] = group_devices[static_cast<std::size_t>(g)];
  }
  placement.Normalize(plan, cluster);
  return placement;
}

DeviceId Placement::device(graph::OpId op) const {
  EAGLE_CHECK(op >= 0 && op < num_ops());
  return devices_[static_cast<std::size_t>(op)];
}

void Placement::Normalize(const graph::OpGraph& graph,
                          const ClusterSpec& cluster) {
  Normalize(PlanNormalization(graph), cluster);
}

void Placement::Normalize(const NormalizationPlan& plan,
                          const ClusterSpec& cluster) {
  EAGLE_CHECK(devices_.size() == plan.source.size());
  const DeviceId cpu = cluster.FirstCpu();
  EAGLE_CHECK_MSG(cpu >= 0, "cluster has no CPU device for pinned ops");
  for (auto& d : devices_) {
    EAGLE_CHECK_MSG(d >= 0 && d < cluster.num_devices(),
                    "device id " << d << " out of range");
  }
  // A source never comes after the op it serves, so it already holds its
  // final device when read.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const graph::OpId source = plan.source[i];
    devices_[i] = source == NormalizationPlan::kOnCpu
                      ? cpu
                      : devices_[static_cast<std::size_t>(source)];
  }
}

std::vector<int> Placement::OpsPerDevice(const ClusterSpec& cluster) const {
  std::vector<int> counts(static_cast<std::size_t>(cluster.num_devices()), 0);
  for (DeviceId d : devices_) counts[static_cast<std::size_t>(d)]++;
  return counts;
}

std::uint64_t Placement::Hash() const {
  // FNV-1a over device ids.
  std::uint64_t h = 1469598103934665603ULL;
  for (DeviceId d : devices_) {
    h ^= static_cast<std::uint64_t>(d) + 0x9E3779B97F4A7C15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Placement::ToString(const graph::OpGraph& graph,
                                const ClusterSpec& cluster) const {
  std::ostringstream os;
  const auto counts = OpsPerDevice(cluster);
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    os << cluster.device(d).name << ": " << counts[static_cast<std::size_t>(d)]
       << " ops";
    if (d + 1 < cluster.num_devices()) os << ", ";
  }
  (void)graph;
  return os.str();
}

}  // namespace eagle::sim
