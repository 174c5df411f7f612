#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "sim/audit.h"
#include "support/check.h"
#include "support/metrics.h"

namespace eagle::sim {

namespace {

// Telemetry observers: run/event totals for the metrics registry. The
// simulator's own results never read these back.
struct SimMetrics {
  support::metrics::Counter* runs = support::metrics::GetCounter("sim.runs");
  support::metrics::Counter* events =
      support::metrics::GetCounter("sim.events");
};

SimMetrics& Metrics() {
  static SimMetrics m;
  return m;
}

}  // namespace

std::string StepResult::ToString(const ClusterSpec& cluster) const {
  std::ostringstream os;
  if (oom) {
    os << "OOM on " << cluster.device(oom_device).name << " ("
       << static_cast<double>(
              device_peak_bytes[static_cast<std::size_t>(oom_device)]) /
              (1 << 30)
       << " GB > "
       << static_cast<double>(cluster.device(oom_device).memory_bytes) /
              (1 << 30)
       << " GB)";
    return os.str();
  }
  os << "step " << step_seconds << " s; busy:";
  for (int d = 0; d < cluster.num_devices(); ++d) {
    os << " " << cluster.device(d).name << "="
       << device_busy_seconds[static_cast<std::size_t>(d)] << "s/"
       << static_cast<double>(device_peak_bytes[static_cast<std::size_t>(d)]) /
              (1 << 30)
       << "GB";
  }
  os << "; transfers " << num_transfers << " moving "
     << static_cast<double>(transfer_bytes_total) / (1 << 30) << " GB";
  return os.str();
}

ExecutionSimulator::ExecutionSimulator(const graph::OpGraph& graph,
                                       const ClusterSpec& cluster,
                                       SimulatorOptions options)
    : graph_(&graph),
      cluster_(&cluster),
      cost_model_(cluster),
      options_(options),
      critical_priority_(static_cast<std::size_t>(graph.num_ops()), 0) {
  // A degenerate spec (zero/negative/non-finite rates) would make the cost
  // model emit inf/NaN step times that poison every comparison downstream;
  // refuse it up front with the offending device/link named.
  const support::Status cluster_status = cluster.Validate();
  EAGLE_CHECK_MSG(cluster_status.ok(),
                  "invalid cluster spec: " << cluster_status.ToString());
  // Downstream critical-path length (in ops) as static priority.
  const std::vector<graph::OpId> topo = graph.TopologicalOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const graph::OpId u = *it;
    int best = 0;
    for (auto ei : graph.out_edges(u)) {
      const graph::OpId v = graph.edges()[static_cast<std::size_t>(ei)].dst;
      best = std::max(best, critical_priority_[static_cast<std::size_t>(v)] + 1);
    }
    critical_priority_[static_cast<std::size_t>(u)] = best;
  }
}

StepResult ExecutionSimulator::Run(const Placement& placement,
                                   const FaultDraw* faults) const {
#ifdef EAGLE_AUDIT
  // Audit builds always record the timeline so every simulated execution
  // can be verified; the recording is dropped again unless the caller
  // asked for it, keeping the result shape identical to a release build.
  StepResult result = RunInternal(placement, faults, /*record_schedule=*/true);
  {
    EAGLE_SPAN("sim.audit");
    const AuditReport audit =
        AuditSchedule(result, *graph_, *cluster_, placement, options_);
    EAGLE_CHECK_MSG(audit.ok(), "schedule audit failed:\n" << audit.ToString());
  }
  if (!options_.record_schedule) {
    result.schedule.clear();
    result.schedule.shrink_to_fit();
    result.transfers.clear();
    result.transfers.shrink_to_fit();
  }
  return result;
#else
  return RunInternal(placement, faults, options_.record_schedule);
#endif
}

void ExecutionSimulator::PrimeWorkspaceEpochForTest(std::uint32_t epoch) const {
  auto lease = workspaces_.Acquire();
  // Prepare first so the shape matches the next Run(): a shape mismatch
  // there would reset the epoch and defeat the priming.
  lease->Prepare(graph_->num_ops(), cluster_->num_devices(),
                 cluster_->num_link_channels());
  lease->epoch = epoch;
}

StepResult ExecutionSimulator::RunInternal(const Placement& placement,
                                           const FaultDraw* faults,
                                           bool record_schedule) const {
  const graph::OpGraph& g = *graph_;
  const int num_ops = g.num_ops();
  const int num_devices = cluster_->num_devices();
  EAGLE_CHECK(placement.num_ops() == num_ops);
  const auto compute_scale = [faults](DeviceId d) {
    return faults == nullptr
               ? 1.0
               : faults->device_compute_scale[static_cast<std::size_t>(d)];
  };
  const auto link_scale = [this, faults](DeviceId src, DeviceId dst) {
    return faults == nullptr
               ? 1.0
               : faults->link_scale[static_cast<std::size_t>(
                     cluster_->link_channel(src, dst))];
  };

  StepResult result;
  result.device_busy_seconds.assign(static_cast<std::size_t>(num_devices), 0.0);
  result.device_peak_bytes.assign(static_cast<std::size_t>(num_devices), 0);
  result.device_param_bytes.assign(static_cast<std::size_t>(num_devices), 0);

  // All per-run scratch lives in a pooled workspace (sim_workspace.h):
  // flat epoch-stamped arrays instead of hash maps, recycled heap vectors
  // instead of priority_queues. Zero heap traffic once warm.
  auto lease = workspaces_.Acquire();
  SimWorkspace& ws = *lease;
  ws.Prepare(num_ops, num_devices, cluster_->num_link_channels());
  const std::uint32_t epoch = ws.epoch;
  const auto cmp = std::greater<ReadyOp>();

  const auto push_ready = [&ws, &cmp](DeviceId d, ReadyOp entry) {
    auto& h = ws.heaps[static_cast<std::size_t>(d)];
    h.push_back(entry);
    std::push_heap(h.begin(), h.end(), cmp);
  };
  // An op's ready time defaults to 0 until a predecessor raises it; the
  // epoch stamp stands in for the old per-run zero-fill.
  const auto raise_ready = [&ws, epoch](graph::OpId v, double t) {
    const auto i = static_cast<std::size_t>(v);
    if (ws.ready_epoch[i] != epoch) {
      ws.ready_epoch[i] = epoch;
      ws.ready_time[i] = t;
    } else if (t > ws.ready_time[i]) {
      ws.ready_time[i] = t;
    }
    return ws.ready_time[i];
  };
  // Pending-input counters start at in-degree, materialized on first
  // decrement; ops with no inputs never get here (seeded below).
  const auto decrement_pending = [&ws, epoch, &g](graph::OpId v) {
    const auto i = static_cast<std::size_t>(v);
    if (ws.pending_epoch[i] != epoch) {
      ws.pending_epoch[i] = epoch;
      ws.pending_inputs[i] = static_cast<int>(g.in_edges(v).size());
    }
    return --ws.pending_inputs[i];
  };

  int scheduled = 0;
  for (graph::OpId i = 0; i < num_ops; ++i) {
    if (g.in_edges(i).empty()) {
      push_ready(placement.device(i),
                 ReadyOp{0.0, critical_priority_[static_cast<std::size_t>(i)],
                         i});
    }
  }

  // Activation liveness per device: tensor intervals collected as we go.
  // The last use time of each op's output on each device is finalized
  // lazily — the interval extends as consumers get scheduled. The
  // (producer, device) -> interval-index map is the flat epoch-stamped
  // live_epoch/live_index pair in the workspace.
  auto touch = [&](graph::OpId producer, DeviceId device, double start,
                   double end, std::int64_t bytes) {
    if (!options_.track_memory || bytes <= 0) return;
    const std::size_t slot =
        static_cast<std::size_t>(producer) *
            static_cast<std::size_t>(num_devices) +
        static_cast<std::size_t>(device);
    auto& ivs = ws.intervals[static_cast<std::size_t>(device)];
    if (ws.live_epoch[slot] != epoch) {
      ws.live_epoch[slot] = epoch;
      ws.live_index[slot] = static_cast<std::uint32_t>(ivs.size());
      ivs.push_back(LiveInterval{start, end, bytes});
    } else {
      auto& iv = ivs[ws.live_index[slot]];
      iv.start = std::min(iv.start, start);
      iv.end = std::max(iv.end, end);
    }
  };

  while (scheduled < num_ops) {
    // Pick the (device, op) pair with the earliest feasible start.
    DeviceId best_dev = -1;
    double best_start = 0.0;
    int best_priority = -1;
    for (DeviceId d = 0; d < num_devices; ++d) {
      const auto& h = ws.heaps[static_cast<std::size_t>(d)];
      if (h.empty()) continue;
      const ReadyOp& head = h.front();
      const double start =
          std::max(head.ready_time, ws.device_free[static_cast<std::size_t>(d)]);
      if (best_dev < 0 || start < best_start ||
          (start == best_start && head.priority > best_priority)) {
        best_dev = d;
        best_start = start;
        best_priority = head.priority;
      }
    }
    EAGLE_CHECK_MSG(best_dev >= 0,
                    "deadlock: no ready ops but " << num_ops - scheduled
                                                  << " unscheduled");
    auto& h = ws.heaps[static_cast<std::size_t>(best_dev)];
    const graph::OpId u = h.front().op;
    std::pop_heap(h.begin(), h.end(), cmp);
    h.pop_back();
    ++scheduled;

    const double start = best_start;
    const double compute =
        cost_model_.ComputeSeconds(g.op(u), best_dev) * compute_scale(best_dev);
    const double finish = start + compute;
    ws.finish_time[static_cast<std::size_t>(u)] = finish;
    ws.device_free[static_cast<std::size_t>(best_dev)] = finish;
    result.device_busy_seconds[static_cast<std::size_t>(best_dev)] += compute;
    if (record_schedule) {
      result.schedule.push_back(ScheduledOp{u, best_dev, start, finish});
    }

    // Output tensor materializes on the producing device.
    touch(u, best_dev, finish, finish, g.op(u).output_bytes());

    // Resolve out-edges: local hand-off or (deduped) transfer. Dedup is
    // keyed on the exact (producer, dst device, bytes) triple: the flat
    // slot caches the first byte size shipped producer→dst; a second
    // distinct size — legitimate when one op feeds consumers tensors of
    // different widths — goes through the overflow list rather than being
    // silently merged (the old 32-bit byte-size hash could collide and
    // drop a real transfer).
    for (auto ei : g.out_edges(u)) {
      const graph::Edge& e = g.edges()[static_cast<std::size_t>(ei)];
      const DeviceId dst_dev = placement.device(e.dst);
      double arrival = finish;
      if (dst_dev != best_dev) {
        const std::size_t slot =
            static_cast<std::size_t>(u) *
                static_cast<std::size_t>(num_devices) +
            static_cast<std::size_t>(dst_dev);
        const double* cached = nullptr;
        if (ws.transfer_epoch[slot] == epoch) {
          if (ws.transfer_bytes[slot] == e.bytes) {
            cached = &ws.transfer_arrival[slot];
          } else {
            // Walk only this slot's chain; other slots' overflow entries
            // are unreachable from here.
            for (std::uint32_t idx = ws.transfer_overflow_head[slot];
                 idx != 0;) {
              const auto& o = ws.transfer_overflow[idx - 1];
              if (o.bytes == e.bytes) {
                cached = &o.arrival;
                break;
              }
              idx = o.next;
            }
          }
        }
        if (cached != nullptr) {
          arrival = *cached;
        } else {
          auto& lf = ws.link_free[static_cast<std::size_t>(
              cluster_->link_channel(best_dev, dst_dev))];
          const double xfer_start = std::max(finish, lf);
          const double xfer =
              cost_model_.TransferSeconds(best_dev, dst_dev, e.bytes) *
              link_scale(best_dev, dst_dev);
          arrival = xfer_start + xfer;
          lf = arrival;
          if (ws.transfer_epoch[slot] != epoch) {
            ws.transfer_epoch[slot] = epoch;
            ws.transfer_bytes[slot] = e.bytes;
            ws.transfer_arrival[slot] = arrival;
            ws.transfer_overflow_head[slot] = 0;
          } else {
            ws.transfer_overflow.push_back(
                {e.bytes, arrival, ws.transfer_overflow_head[slot]});
            ws.transfer_overflow_head[slot] =
                static_cast<std::uint32_t>(ws.transfer_overflow.size());
          }
          result.transfer_seconds_total += xfer;
          result.transfer_bytes_total += e.bytes;
          result.num_transfers++;
          if (record_schedule) {
            result.transfers.push_back(ScheduledTransfer{
                u, best_dev, dst_dev, e.bytes, xfer_start, arrival});
          }
          // The received copy lives on the destination until consumed;
          // the end is extended below as consumers schedule.
          touch(u, dst_dev, arrival, arrival, e.bytes);
        }
      }
      const double dst_ready = raise_ready(e.dst, arrival);
      if (decrement_pending(e.dst) == 0) {
        push_ready(dst_dev,
                   ReadyOp{dst_ready,
                           critical_priority_[static_cast<std::size_t>(e.dst)],
                           e.dst});
      }
    }
    result.step_seconds = std::max(result.step_seconds, finish);

    // Extend the liveness of every input tensor to this op's finish.
    if (options_.track_memory) {
      for (auto ei : g.in_edges(u)) {
        const graph::Edge& e = g.edges()[static_cast<std::size_t>(ei)];
        touch(e.src, best_dev, start, finish,
              placement.device(e.src) == best_dev ? g.op(e.src).output_bytes()
                                                  : e.bytes);
      }
    }
  }

  // Memory accounting: params resident for the whole step + activation
  // sweep with allocator overhead.
  if (options_.track_memory) {
    for (graph::OpId i = 0; i < num_ops; ++i) {
      result.device_param_bytes[static_cast<std::size_t>(placement.device(i))] +=
          g.op(i).param_bytes;
    }
    for (DeviceId d = 0; d < num_devices; ++d) {
      const std::int64_t activation_peak = PeakLiveBytes(
          ws.intervals[static_cast<std::size_t>(d)], ws.event_scratch);
      const std::int64_t peak =
          result.device_param_bytes[static_cast<std::size_t>(d)] +
          static_cast<std::int64_t>(
              static_cast<double>(activation_peak) *
              options_.memory.activation_overhead);
      result.device_peak_bytes[static_cast<std::size_t>(d)] = peak;
      if (peak > cluster_->device(d).memory_bytes && !result.oom) {
        result.oom = true;
        result.oom_device = d;
      }
    }
  }
  Metrics().runs->Increment();
  // Every scheduled op and every physical transfer is one simulated event.
  Metrics().events->Increment(scheduled + result.num_transfers);
  return result;
}

double ExecutionSimulator::ParamTransferSeconds(
    const Placement& placement, const FaultDraw* faults) const {
  const DeviceId cpu = cluster_->FirstCpu();
  double total = 0.0;
  for (graph::OpId i = 0; i < graph_->num_ops(); ++i) {
    const auto& op = graph_->op(i);
    if (op.param_bytes > 0) {
      double scale = 1.0;
      if (faults != nullptr && placement.device(i) != cpu) {
        scale = faults->link_scale[static_cast<std::size_t>(
            cluster_->link_channel(cpu, placement.device(i)))];
      }
      total += scale * cost_model_.TransferSeconds(cpu, placement.device(i),
                                                   op.param_bytes);
    }
  }
  return total;
}

}  // namespace eagle::sim
