// ExecutionSimulator: deterministic discrete-event simulation of one
// training step of a placed computational graph.
//
// This is the substitute for the paper's physical 4-GPU machine (§IV-C).
// Model:
//   - each device executes its ops one at a time (list scheduling with an
//     earliest-start / critical-path priority, matching how TF's executor
//     keeps a device busy whenever work is ready);
//   - cross-device edges become transfers serialized on the directed link
//     between the two devices, paying latency + bytes/bandwidth;
//   - a tensor sent to the same destination device more than once per step
//     is transferred once and reused (TensorFlow's send/recv dedup) — this
//     matters for unrolled RNNs reading shared layer weights;
//   - device memory = resident params (+ optimizer slots) + peak live
//     activations (scaled by an allocator-overhead factor); exceeding the
//     device capacity marks the placement invalid (the environment's OOM
//     signal in Table IV).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/op_graph.h"
#include "sim/cost_model.h"
#include "sim/device.h"
#include "sim/fault.h"
#include "sim/placement.h"
#include "sim/sim_workspace.h"
#include "support/resource_pool.h"

namespace eagle::sim {

// One scheduled op execution (recorded when record_schedule is on).
struct ScheduledOp {
  graph::OpId op = graph::kInvalidOp;
  DeviceId device = -1;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

// One scheduled cross-device transfer.
struct ScheduledTransfer {
  graph::OpId producer = graph::kInvalidOp;
  DeviceId src = -1;
  DeviceId dst = -1;
  std::int64_t bytes = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

struct StepResult {
  bool oom = false;
  DeviceId oom_device = -1;
  double step_seconds = 0.0;
  std::vector<double> device_busy_seconds;   // per device
  std::vector<std::int64_t> device_peak_bytes;  // per device (incl. params)
  std::vector<std::int64_t> device_param_bytes;
  double transfer_seconds_total = 0.0;       // sum over link busy time
  std::int64_t transfer_bytes_total = 0;
  int num_transfers = 0;
  // Populated only when SimulatorOptions::record_schedule is set.
  std::vector<ScheduledOp> schedule;
  std::vector<ScheduledTransfer> transfers;

  std::string ToString(const ClusterSpec& cluster) const;
};

struct SimulatorOptions {
  // Record the full op/transfer timeline (for trace export and the
  // critical-path analyzer). Off by default: it allocates per op.
  bool record_schedule = false;
};

class ExecutionSimulator {
 public:
  ExecutionSimulator(const graph::OpGraph& graph, const ClusterSpec& cluster,
                     SimulatorOptions options = {});

  // Simulates one steady-state training step under `placement` (which must
  // already be normalized). Deterministic. When `faults` is given, device
  // compute times are scaled by its per-device straggler factors and
  // transfer times by its per-channel link degradation (hard faults —
  // crash / device-down — are handled by the measurement layer, not here).
  // In EAGLE_AUDIT builds every run is audited against the schedule
  // invariants (sim/audit.h) and aborts via EAGLE_CHECK on a violation.
  StepResult Run(const Placement& placement,
                 const FaultDraw* faults = nullptr) const;

  // Seconds to ship every parameter tensor from host to its device — the
  // warm-up cost the measurement protocol pays on the first step.
  double ParamTransferSeconds(const Placement& placement,
                              const FaultDraw* faults = nullptr) const;

  const graph::OpGraph& graph() const { return *graph_; }
  const ClusterSpec& cluster() const { return *cluster_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  // The discrete-event loop behind Run(). `record_schedule` overrides
  // options_.record_schedule so audit builds can always capture the
  // timeline the auditor verifies.
  StepResult RunInternal(const Placement& placement, const FaultDraw* faults,
                         bool record_schedule) const;

  const graph::OpGraph* graph_;
  const ClusterSpec* cluster_;
  CostModel cost_model_;
  SimulatorOptions options_;
  std::vector<int> critical_priority_;  // longer downstream path == higher

  // Flat per-op tables, built once so Run() reads no OpDef and no nested
  // edge list: out-edges in CSR form (op u's edges are
  // out_edges_[out_begin_[u], out_begin_[u + 1]), in graph order), each
  // with its consumer's critical-path priority.
  struct OutEdge {
    graph::OpId dst;
    int dst_priority;
    std::int64_t bytes;
  };
  std::vector<std::size_t> out_begin_;
  std::vector<OutEdge> out_edges_;
  std::vector<int> in_degree_;
  std::vector<std::int64_t> output_bytes_;
  std::vector<std::int64_t> param_bytes_;
  // CostModel::ComputeSeconds per (device spec, op), spec-major. Devices
  // that agree on every field it reads share one spec row, so the table
  // is num_specs × num_ops rather than num_devices × num_ops.
  std::vector<int> spec_of_device_;
  std::vector<double> compute_seconds_;
  // One entry per directed (src, dst) pair, src-major: its contention
  // channel and the two products CostModel::TransferSeconds forms.
  struct Link {
    double latency_seconds;
    double bytes_per_second;
    int channel;

    // CostModel::TransferSeconds for a src != dst pair, times the
    // channel's fault scale when a draw is given.
    double TransferSeconds(std::int64_t bytes, const FaultDraw* faults) const {
      const double seconds =
          latency_seconds + static_cast<double>(bytes) / bytes_per_second;
      return faults == nullptr
                 ? seconds
                 : seconds *
                       faults->link_scale[static_cast<std::size_t>(channel)];
    }
  };
  std::vector<Link> links_;
  // Run() is const and concurrent (EvalService workers share one
  // simulator), so per-run scratch is leased rather than a plain member.
  // After warm-up every lease hits the free list and runs allocation-free.
  mutable support::ResourcePool<SimWorkspace> workspaces_;
};

}  // namespace eagle::sim
