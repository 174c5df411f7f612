// Device and cluster specifications for the execution simulator.
//
// The default cluster mirrors the paper's environment (§IV-C): one machine
// with 4 NVIDIA P100 GPUs and 2 Xeon E5-2650v4 CPUs (modelled as a single
// CPU device, as TensorFlow exposes it), connected over PCIe.
//
// Beyond the paper's single box, MakeHierarchicalCluster builds arbitrary
// multi-node topologies: NVLink islands inside a node, PCIe across
// islands and to the host, InfiniBand between nodes — each tier with its
// own bandwidth/latency — plus heterogeneous per-device compute/memory
// and shared contention channels (one per PCIe root complex, one per
// NIC). Serialized cluster specs (.ec / .json) are ingested through
// sim/cluster_ingest.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace eagle::sim {

enum class DeviceKind { kCPU, kGPU };

using DeviceId = std::int32_t;

struct DeviceSpec {
  std::string name;
  DeviceKind kind = DeviceKind::kGPU;
  // Effective (not peak) compute rate for training kernels.
  double gflops = 4000.0;
  // Local memory bandwidth, used for memory-bound elementwise ops.
  double mem_bw_gbps = 500.0;
  // Per-op dispatch overhead: kernel launch on GPU, op dispatch on CPU.
  // This is what makes spreading a small model (Inception-V3) lose.
  double launch_overhead_us = 15.0;
  // Usable memory after framework reservations.
  std::int64_t memory_bytes = 0;
};

struct LinkSpec {
  double bandwidth_gbps = 12.0;  // PCIe gen3 x16 effective
  double latency_us = 10.0;
};

class ClusterSpec {
 public:
  ClusterSpec() = default;

  DeviceId AddDevice(DeviceSpec spec);
  void SetLink(DeviceId src, DeviceId dst, LinkSpec link);

  // Declares a default tier: any directed link never configured through
  // SetLink uses this spec. Without a declared default tier, Validate()
  // rejects clusters with unconfigured inter-device links — the silent
  // 12 GB/s PCIe fallback used to make unreachable pairs in multi-node
  // specs look like fast local links.
  void SetDefaultLink(LinkSpec link);
  bool has_default_link() const { return has_default_link_; }
  // True when SetLink was called for this directed pair.
  bool link_configured(DeviceId src, DeviceId dst) const;

  // Assigns the directed link to a contention channel: transfers on links
  // sharing a channel serialize against each other (e.g. all host<->GPU
  // links crossing one PCIe root complex, or all inter-node transfers
  // leaving one NIC). Channel ids are caller-chosen labels; links sharing
  // a label share a channel. Default: every directed link is its own
  // channel.
  void SetLinkChannel(DeviceId src, DeviceId dst, int channel);
  // Dense channel index for a directed link, always in
  // [0, num_link_channels()): caller-labelled channels map to
  // [0, num_custom_channels()) in first-use order, default per-pair
  // channels follow. Stable under AddDevice interleaved with SetLink /
  // SetLinkChannel (links sharing a label keep sharing an index).
  int link_channel(DeviceId src, DeviceId dst) const;
  int num_link_channels() const;
  int num_custom_channels() const {
    return static_cast<int>(channel_ids_.size());
  }

  int num_devices() const { return static_cast<int>(devices_.size()); }
  const DeviceSpec& device(DeviceId id) const;
  const LinkSpec& link(DeviceId src, DeviceId dst) const;

  // First CPU device (placement target for cpu_only ops); -1 if none.
  DeviceId FirstCpu() const;
  // All GPU device ids in insertion order.
  std::vector<DeviceId> Gpus() const;

  // Checks every device and link spec for values the cost model would turn
  // into inf/NaN step times: compute/bandwidth rates must be positive and
  // finite, overheads/latencies non-negative and finite, memory
  // non-negative. Returns kNumericOverflow naming the offending device or
  // link, kSyntax for an empty cluster or for a directed pair that was
  // never configured when no default tier is declared. ExecutionSimulator
  // refuses (via EAGLE_CHECK) to be constructed over a cluster that fails
  // this.
  support::Status Validate() const;

  std::string ToString() const;

 private:
  std::vector<DeviceSpec> devices_;
  std::vector<LinkSpec> links_;          // row-major [src * n + dst]
  std::vector<unsigned char> link_set_;  // row-major; SetLink called?
  // Row-major; -1 == own channel, else a dense index into channel_ids_.
  std::vector<int> link_channels_;
  // Caller-chosen channel label per dense custom-channel index, in
  // first-use order.
  std::vector<int> channel_ids_;
  LinkSpec default_link_{};
  bool has_default_link_ = false;
};

struct ClusterOptions {
  int num_gpus = 4;
  // P100 16GB exists, but the paper's OOM discussion assumes "typical GPUs
  // only have 12GB to 16GB" — we model 12GB cards with ~92% usable after
  // the framework's allocator reservation.
  std::int64_t gpu_memory_bytes = static_cast<std::int64_t>(11.0 * (1LL << 30));
  double gpu_gflops = 2500.0;   // effective P100 fp32 throughput in training
  double cpu_gflops = 80.0;     // 2x E5-2650v4, effective
  double pcie_gbps = 11.0;
  double pcie_latency_us = 50.0;  // includes TF send/recv rendezvous cost
  // When true, all host<->GPU links share one contention channel (a
  // single PCIe root complex) instead of independent per-pair channels.
  bool shared_host_bus = false;
};

// 4x P100 + CPU, fully connected over PCIe (GPU<->GPU peer traffic crosses
// the same switch and is modelled slightly slower than host links).
ClusterSpec MakeDefaultCluster(const ClusterOptions& options = {});

// Cluster scaled down alongside ZooOptions::reduced graphs: memory shrinks
// with the models so memory-pressure behaviour (single-GPU OOM for the big
// models) is preserved at test scale. A zero/negative or non-finite scale
// is a kNumericOverflow error, not a later simulator abort; the assembled
// cluster is additionally run through ClusterSpec::Validate().
support::StatusOr<ClusterSpec> MakeScaledCluster(
    double memory_scale, const ClusterOptions& options = {});

// A heterogeneous, hierarchical multi-node cluster. Interconnect tiers,
// fastest to slowest:
//   NVLink — all-to-all inside an island of `island_size` GPUs; every
//            NVLink link is its own channel (point-to-point lanes);
//   PCIe   — host<->GPU and cross-island GPU<->GPU inside one node; all
//            PCIe traffic of a node shares that node's root-complex
//            channel when `shared_pcie_root`;
//   IB     — every cross-node pair; all transfers *leaving* a node share
//            that node's NIC egress channel when `shared_nic`.
// Per-device heterogeneity: `per_gpu_gflops` / `per_gpu_memory_bytes`
// (cycled over each node's GPUs; empty = the homogeneous gpu_* values).
struct HierarchicalClusterOptions {
  int num_nodes = 2;
  int gpus_per_node = 4;
  // GPUs [k*island_size, (k+1)*island_size) within a node form one
  // NVLink island; island_size >= gpus_per_node means one island per
  // node (a DGX-style fully NVLink-connected box).
  int island_size = 4;

  double gpu_gflops = 2500.0;
  double gpu_mem_bw_gbps = 550.0;
  double gpu_launch_overhead_us = 50.0;
  std::int64_t gpu_memory_bytes = static_cast<std::int64_t>(11.0 * (1LL << 30));
  // Heterogeneous per-GPU overrides, cycled per node. Empty = homogeneous.
  std::vector<double> per_gpu_gflops;
  std::vector<std::int64_t> per_gpu_memory_bytes;

  double cpu_gflops = 80.0;
  std::int64_t cpu_memory_bytes = 120LL << 30;

  double nvlink_gbps = 44.0;  // effective per-direction NVLink gen2
  double nvlink_latency_us = 6.0;
  double pcie_gbps = 11.0;
  double pcie_latency_us = 50.0;
  double ib_gbps = 9.0;  // effective 100 Gb/s IB after transport overhead
  double ib_latency_us = 130.0;  // includes gRPC/rendezvous cost

  bool shared_pcie_root = true;
  bool shared_nic = true;
};

// Device order is node-major, CPU first within each node:
//   /node0/cpu:0, /node0/gpu:0 .. /node0/gpu:G-1, /node1/cpu:0, ...
// The returned cluster always passes Validate() (every pair configured).
ClusterSpec MakeHierarchicalCluster(const HierarchicalClusterOptions& options = {});

// Canonical topologies used by benches, the simulator's reference-oracle
// tests and the --cluster=<name> CLI shorthand (sim/cluster_ingest.h
// ResolveCluster):
//   2node8  — 2 nodes × 4 NVLink-island GPUs over shared-NIC IB;
//   mixed   — one box with 2 fast (P100-class) + 2 slow (K80-class,
//             more memory) GPUs behind one PCIe root.
ClusterSpec MakeTwoNodeNvlinkIbCluster();
ClusterSpec MakeMixedSpeedCluster();

}  // namespace eagle::sim
