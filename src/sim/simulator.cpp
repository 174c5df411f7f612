#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "sim/audit.h"
#include "sim/memory_model.h"
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
  const std::size_t num_ops = static_cast<std::size_t>(graph.num_ops());
  // CSR out-edges by a counting sort over the edge list. Edge ids grow in
  // insertion order, which is the order out_edges() lists them in, so
  // each op's CSR row keeps the graph's order.
  const std::vector<graph::Edge>& edges = graph.edges();
  out_begin_.assign(num_ops + 1, 0);
  in_degree_.assign(num_ops, 0);
  for (const graph::Edge& e : edges) {
    ++out_begin_[static_cast<std::size_t>(e.src) + 1];
    ++in_degree_[static_cast<std::size_t>(e.dst)];
  }
  for (std::size_t u = 0; u < num_ops; ++u) out_begin_[u + 1] += out_begin_[u];
  out_edges_.resize(edges.size());
  std::vector<std::size_t> next(out_begin_.begin(), out_begin_.end() - 1);
  for (const graph::Edge& e : edges) {
    out_edges_[next[static_cast<std::size_t>(e.src)]++] =
        OutEdge{e.dst, 0, e.bytes};
  }

  // ComputeSeconds reads a device's gflops, mem_bw_gbps and
  // launch_overhead_us only, so one row per distinct triple holds the
  // exact values a per-device table would.
  std::vector<const DeviceSpec*> specs;  // one per row
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    const DeviceSpec& spec = cluster.device(d);
    const auto row = std::find_if(
        specs.begin(), specs.end(), [&spec](const DeviceSpec* seen) {
          return seen->gflops == spec.gflops &&
                 seen->mem_bw_gbps == spec.mem_bw_gbps &&
                 seen->launch_overhead_us == spec.launch_overhead_us;
        });
    spec_of_device_.push_back(static_cast<int>(row - specs.begin()));
    if (row == specs.end()) specs.push_back(&spec);
  }
  output_bytes_.resize(num_ops);
  param_bytes_.resize(num_ops);
  compute_seconds_.resize(specs.size() * num_ops);
  const std::vector<graph::OpDef>& ops = graph.ops();
  for (std::size_t u = 0; u < num_ops; ++u) {
    output_bytes_[u] = ops[u].output_bytes();
    param_bytes_[u] = ops[u].param_bytes;
  }
  for (std::size_t row = 0; row < specs.size(); ++row) {
    for (std::size_t u = 0; u < num_ops; ++u) {
      compute_seconds_[row * num_ops + u] = CostModel::ComputeSeconds(
          ops[u].flops, output_bytes_[u], *specs[row]);
    }
  }

  // Downstream critical-path length (in ops) as static priority, filled
  // in reverse topological order (Kahn's algorithm over the CSR rows).
  std::vector<graph::OpId> order;
  order.reserve(num_ops);
  std::vector<int> pending(in_degree_);
  for (graph::OpId u = 0; u < graph.num_ops(); ++u) {
    if (pending[static_cast<std::size_t>(u)] == 0) order.push_back(u);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto u = static_cast<std::size_t>(order[i]);
    for (std::size_t k = out_begin_[u]; k < out_begin_[u + 1]; ++k) {
      if (--pending[static_cast<std::size_t>(out_edges_[k].dst)] == 0) {
        order.push_back(out_edges_[k].dst);
      }
    }
  }
  EAGLE_CHECK_MSG(order.size() == num_ops, "graph has a cycle");
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto u = static_cast<std::size_t>(*it);
    int best = 0;
    for (std::size_t k = out_begin_[u]; k < out_begin_[u + 1]; ++k) {
      best = std::max(
          best,
          critical_priority_[static_cast<std::size_t>(out_edges_[k].dst)] + 1);
    }
    critical_priority_[u] = best;
  }
  for (OutEdge& e : out_edges_) {
    e.dst_priority = critical_priority_[static_cast<std::size_t>(e.dst)];
  }

  const int num_devices = cluster.num_devices();
  links_.reserve(static_cast<std::size_t>(num_devices) *
                 static_cast<std::size_t>(num_devices));
  for (DeviceId src = 0; src < num_devices; ++src) {
    for (DeviceId dst = 0; dst < num_devices; ++dst) {
      const LinkSpec& link = cluster.link(src, dst);
      links_.push_back(Link{link.latency_us * 1e-6,
                            link.bandwidth_gbps * 1e9,
                            cluster.link_channel(src, dst)});
    }
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
        AuditSchedule(result, *graph_, *cluster_, placement);
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

StepResult ExecutionSimulator::RunInternal(const Placement& placement,
                                           const FaultDraw* faults,
                                           bool record_schedule) const {
  EAGLE_SPAN("sim.run");
  const int num_ops = graph_->num_ops();
  const int num_devices = cluster_->num_devices();
  EAGLE_CHECK(placement.num_ops() == num_ops);
  const std::vector<DeviceId>& device_of = placement.devices();

  StepResult result;
  result.device_busy_seconds.assign(static_cast<std::size_t>(num_devices), 0.0);
  result.device_peak_bytes.assign(static_cast<std::size_t>(num_devices), 0);
  result.device_param_bytes.assign(static_cast<std::size_t>(num_devices), 0);

  // All per-run scratch lives in a pooled workspace (sim_workspace.h):
  // one run record per op, recycled heap vectors of integer keys instead
  // of priority_queues, op-local dedup lists. Zero heap traffic once warm.
  auto lease = workspaces_.Acquire();
  SimWorkspace& ws = *lease;
  ws.Prepare(num_ops, num_devices, cluster_->num_link_channels());
  const auto cmp = std::greater<ReadyKey>();

  const auto push_ready = [&ws, &cmp](DeviceId d, ReadyKey key) {
    auto& h = ws.heaps[static_cast<std::size_t>(d)];
    h.push_back(key);
    std::push_heap(h.begin(), h.end(), cmp);
  };

  // Each op's run record starts at its in-degree on its device; ops with
  // no inputs are ready at 0. Device-major pick slots: slot_end[d] counts
  // device d's ops, then starts at its first slot.
  for (graph::OpId i = 0; i < num_ops; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const DeviceId d = device_of[ii];
    ws.ops[ii] = SimWorkspace::OpRun{
        0.0, static_cast<std::uint32_t>(in_degree_[ii]), d};
    ws.first_copy[ii] = SimWorkspace::kNoCopy;
    if (in_degree_[ii] == 0) {
      push_ready(d, MakeReadyKey(0.0, critical_priority_[ii], i));
    }
    ++ws.slot_end[static_cast<std::size_t>(d)];
  }
  std::uint32_t first = 0;
  for (std::uint32_t& slot : ws.slot_end) {
    const std::uint32_t count = slot;
    slot = first;
    first += count;
  }

  int scheduled = 0;
  while (scheduled < num_ops) {
    // Pick the (device, op) pair with the earliest feasible start.
    DeviceId best_dev = -1;
    double best_start = 0.0;
    std::uint32_t best_inverse_priority = 0;
    for (DeviceId d = 0; d < num_devices; ++d) {
      const auto& h = ws.heaps[static_cast<std::size_t>(d)];
      if (h.empty()) continue;
      const ReadyKey head = h.front();
      const double start = std::max(
          ReadyTimeOf(head), ws.device_free[static_cast<std::size_t>(d)]);
      const std::uint32_t inverse_priority = InversePriorityOf(head);
      if (best_dev < 0 || start < best_start ||
          (start == best_start && inverse_priority < best_inverse_priority)) {
        best_dev = d;
        best_start = start;
        best_inverse_priority = inverse_priority;
      }
    }
    EAGLE_CHECK_MSG(best_dev >= 0,
                    "deadlock: no ready ops but " << num_ops - scheduled
                                                  << " unscheduled");
    auto& h = ws.heaps[static_cast<std::size_t>(best_dev)];
    const graph::OpId u = OpOf(h.front());
    const auto ui = static_cast<std::size_t>(u);
    std::pop_heap(h.begin(), h.end(), cmp);
    h.pop_back();

    const double start = best_start;
    const auto spec = static_cast<std::size_t>(
        spec_of_device_[static_cast<std::size_t>(best_dev)]);
    double compute =
        compute_seconds_[spec * static_cast<std::size_t>(num_ops) + ui];
    if (faults != nullptr) {
      compute *=
          faults->device_compute_scale[static_cast<std::size_t>(best_dev)];
    }
    const double finish = start + compute;
    ws.device_free[static_cast<std::size_t>(best_dev)] = finish;
    result.device_busy_seconds[static_cast<std::size_t>(best_dev)] += compute;
    if (record_schedule) {
      result.schedule.push_back(ScheduledOp{u, best_dev, start, finish});
    }
    const std::uint32_t slot =
        ws.slot_end[static_cast<std::size_t>(best_dev)]++;
    ws.picks[slot] = SimWorkspace::PickSlot{finish, 0, 0};
    ws.ops[ui].pending = slot;
    ++scheduled;

    // Resolve out-edges: local hand-off or (deduped) transfer. Dedup is
    // keyed on the exact (producer, dst device, bytes) triple: a second
    // distinct size to one device — legitimate when one op feeds
    // consumers tensors of different widths — is its own send rather
    // than being silently merged (the old 32-bit byte-size hash could
    // collide and drop a real transfer). All of u's sends happen in this
    // loop, so the lookup walks only u's earlier sends to that device.
    const auto copies_begin = static_cast<std::uint32_t>(ws.copies.size());
    const Link* links_from =
        &links_[static_cast<std::size_t>(best_dev) *
                static_cast<std::size_t>(num_devices)];
    for (std::size_t k = out_begin_[ui]; k < out_begin_[ui + 1]; ++k) {
      const OutEdge& e = out_edges_[k];
      SimWorkspace::OpRun& consumer = ws.ops[static_cast<std::size_t>(e.dst)];
      const DeviceId dst_dev = consumer.device;
      double arrival = finish;
      if (dst_dev != best_dev) {
        SimWorkspace::DeviceScratch& dst =
            ws.device_scratch[static_cast<std::size_t>(dst_dev)];
        std::uint32_t hit = dst.send_head;
        while (hit != 0 && ws.sends[hit - 1].bytes != e.bytes) {
          hit = ws.sends[hit - 1].next;
        }
        if (hit != 0) {
          arrival = ws.sends[hit - 1].arrival;
        } else {
          const Link& link = links_from[dst_dev];
          auto& lf = ws.link_free[static_cast<std::size_t>(link.channel)];
          const double xfer_start = std::max(finish, lf);
          const double xfer = link.TransferSeconds(e.bytes, faults);
          arrival = xfer_start + xfer;
          lf = arrival;
          ws.sends.push_back(
              SimWorkspace::Send{e.bytes, arrival, dst.send_head, dst_dev});
          dst.send_head = static_cast<std::uint32_t>(ws.sends.size());
          result.transfer_seconds_total += xfer;
          result.transfer_bytes_total += e.bytes;
          result.num_transfers++;
          if (record_schedule) {
            result.transfers.push_back(ScheduledTransfer{
                u, best_dev, dst_dev, e.bytes, xfer_start, arrival});
          }
          // The received copy lives on the destination from its first
          // arrival (its size is the first non-empty send's) until its
          // last consumer there finishes — set in the pass below.
          if (e.bytes > 0) {
            if (dst.copy == 0) {
              ws.copies.push_back(
                  SimWorkspace::RemoteCopy{e.bytes, arrival, 0, dst_dev, u});
              dst.copy = static_cast<std::uint32_t>(ws.copies.size());
            } else {
              double& first = ws.copies[dst.copy - 1].arrival;
              first = std::min(first, arrival);
            }
          }
        }
      }
      if (arrival > consumer.ready) consumer.ready = arrival;
      if (--consumer.pending == 0) {
        push_ready(dst_dev,
                   MakeReadyKey(consumer.ready, e.dst_priority, e.dst));
      }
    }
    if (ws.copies.size() != copies_begin) ws.first_copy[ui] = copies_begin;
    for (const SimWorkspace::Send& send : ws.sends) {
      ws.device_scratch[static_cast<std::size_t>(send.device)] = {};
    }
    ws.sends.clear();
    result.step_seconds = std::max(result.step_seconds, finish);
  }

  // Memory accounting: params resident for the whole step + activation
  // sweep with allocator overhead.
  for (std::size_t i = 0; i < static_cast<std::size_t>(num_ops); ++i) {
    result.device_param_bytes[static_cast<std::size_t>(device_of[i])] +=
        param_bytes_[i];
  }
  // Interval ends, one pass over the out-edges in op-id order: u's output
  // is held on its own device from u's pick until its last local
  // consumer's (a tensor with no local consumer is zero-length), and
  // each remote copy until its last consumer on that device that reads
  // a non-empty edge. A device's finish times never decrease along its
  // slots, so "last" is the largest slot. Every bucket is an int64 sum
  // and every end a max, so the order of the ops cannot change them.
  for (std::size_t ui = 0; ui < static_cast<std::size_t>(num_ops); ++ui) {
    const SimWorkspace::OpRun& run = ws.ops[ui];
    std::size_t copies_begin = 0;
    std::size_t copies_end = 0;
    if (ws.first_copy[ui] != SimWorkspace::kNoCopy) {
      copies_begin = copies_end = ws.first_copy[ui];
      for (; copies_end < ws.copies.size() &&
             ws.copies[copies_end].producer == static_cast<graph::OpId>(ui);
           ++copies_end) {
        const SimWorkspace::RemoteCopy& copy = ws.copies[copies_end];
        ws.device_scratch[static_cast<std::size_t>(copy.device)].copy =
            static_cast<std::uint32_t>(copies_end + 1);
      }
    }
    std::uint32_t local_free = run.pending;
    for (std::size_t k = out_begin_[ui]; k < out_begin_[ui + 1]; ++k) {
      const OutEdge& e = out_edges_[k];
      const SimWorkspace::OpRun& consumer =
          ws.ops[static_cast<std::size_t>(e.dst)];
      if (consumer.device == run.device) {
        local_free = std::max(local_free, consumer.pending);
      } else if (e.bytes > 0) {
        // A non-empty send to the consumer's device made u's copy there
        // (set just above).
        const std::uint32_t copy =
            ws.device_scratch[static_cast<std::size_t>(consumer.device)].copy;
        std::uint32_t& free_slot = ws.copies[copy - 1].free_slot;
        free_slot = std::max(free_slot, consumer.pending);
      }
    }
    if (output_bytes_[ui] > 0) {
      ws.picks[run.pending].delta += output_bytes_[ui];
      ws.picks[local_free].delta -= output_bytes_[ui];
    }
    // A copy is allocated at its arrival: in the slot whose finish equals
    // it, or else before the first slot finishing later (binary search
    // over the device's non-decreasing finish times).
    for (std::size_t c = copies_begin; c < copies_end; ++c) {
      const SimWorkspace::RemoteCopy& copy = ws.copies[c];
      const auto d = static_cast<std::size_t>(copy.device);
      const auto last = ws.picks.begin() + ws.slot_end[d];
      const auto at = std::lower_bound(
          ws.picks.begin() + (d == 0 ? 0 : ws.slot_end[d - 1]), last,
          copy.arrival, [](const SimWorkspace::PickSlot& p, double t) {
            return p.finish < t;
          });
      EAGLE_DCHECK(at != last);  // the copy's consumers finish after it
      if (at->finish == copy.arrival) {
        at->delta += copy.bytes;
      } else {
        at->arrived += copy.bytes;
      }
      ws.picks[copy.free_slot].delta -= copy.bytes;
    }
  }
  // The sweep. Within one timestamp frees only lower the int64 total and
  // allocations only raise it, so the peak is the total after all of a
  // timestamp's events, whatever their order: it is taken at the end of
  // each run of equal finish times, and after each batch of arrivals
  // between two finish times (arrivals only raise the total).
  for (DeviceId d = 0; d < num_devices; ++d) {
    const auto di = static_cast<std::size_t>(d);
    const std::size_t end = ws.slot_end[di];
    std::int64_t live = 0;
    std::int64_t activation_peak = 0;
    for (std::size_t s = di == 0 ? 0 : ws.slot_end[di - 1]; s < end; ++s) {
      const SimWorkspace::PickSlot& pick = ws.picks[s];
      if (pick.arrived != 0) {
        live += pick.arrived;
        activation_peak = std::max(activation_peak, live);
      }
      live += pick.delta;
      if (s + 1 == end || ws.picks[s + 1].finish != pick.finish) {
        activation_peak = std::max(activation_peak, live);
      }
    }
    const std::int64_t peak =
        result.device_param_bytes[di] +
        static_cast<std::int64_t>(static_cast<double>(activation_peak) *
                                  kActivationOverhead);
    result.device_peak_bytes[di] = peak;
    if (peak > cluster_->device(d).memory_bytes && !result.oom) {
      result.oom = true;
      result.oom_device = d;
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
  const auto num_devices = static_cast<std::size_t>(cluster_->num_devices());
  double total = 0.0;
  for (graph::OpId i = 0; i < graph_->num_ops(); ++i) {
    const std::int64_t param_bytes = param_bytes_[static_cast<std::size_t>(i)];
    const DeviceId device = placement.device(i);
    // Parameters already on the host cost nothing to ship.
    if (param_bytes <= 0 || device == cpu) continue;
    EAGLE_CHECK_MSG(cpu >= 0, "no CPU device to ship parameters from");
    total += links_[static_cast<std::size_t>(cpu) * num_devices +
                    static_cast<std::size_t>(device)]
                 .TransferSeconds(param_bytes, faults);
  }
  return total;
}

}  // namespace eagle::sim
