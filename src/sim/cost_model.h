// Analytical per-op and per-transfer cost model.
//
// Compute: roofline-style max(flops/rate, bytes/mem_bw) plus a fixed
// dispatch overhead — small ops are overhead-dominated (why Inception-V3
// prefers a single device), large matmuls are compute-dominated, large
// elementwise ops are bandwidth-dominated.
// Transfers: latency + bytes/bandwidth on the directed link.
#pragma once

#include <algorithm>
#include <cstdint>

#include "graph/op_def.h"
#include "sim/device.h"

namespace eagle::sim {

class CostModel {
 public:
  explicit CostModel(const ClusterSpec& cluster) : cluster_(&cluster) {}

  // Execution time of `op` on `device`, in seconds.
  double ComputeSeconds(const graph::OpDef& op, DeviceId device) const {
    return ComputeSeconds(op.flops, op.output_bytes(),
                          cluster_->device(device));
  }
  // The same, for an op given by its flops and output size, on a device
  // described by `spec`.
  static double ComputeSeconds(double flops, std::int64_t output_bytes,
                               const DeviceSpec& spec) {
    const double compute = flops / (spec.gflops * 1e9);
    // Each op reads its inputs and writes its output; approximate moved
    // bytes by the output size (inputs are accounted by their producers).
    const double bandwidth =
        static_cast<double>(output_bytes) / (spec.mem_bw_gbps * 1e9);
    return spec.launch_overhead_us * 1e-6 + std::max(compute, bandwidth);
  }

  // Time to move `bytes` from `src` to `dst`, in seconds (0 if same).
  double TransferSeconds(DeviceId src, DeviceId dst,
                         std::int64_t bytes) const;

  const ClusterSpec& cluster() const { return *cluster_; }

 private:
  const ClusterSpec* cluster_;
};

}  // namespace eagle::sim
