#include "sim/naive_ref.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/cost_model.h"
#include "sim/memory_model.h"
#include "support/check.h"

namespace eagle::sim::naive {

namespace {

// Ready-queue entry: ops ready earlier run first; ties broken by longer
// downstream critical path, then by id for determinism.
struct NaiveReadyOp {
  double ready_time;
  int priority;
  graph::OpId op;

  bool operator>(const NaiveReadyOp& other) const {
    if (ready_time != other.ready_time) return ready_time > other.ready_time;
    if (priority != other.priority) return priority < other.priority;
    return op > other.op;
  }
};

using ReadyQueue = std::priority_queue<NaiveReadyOp, std::vector<NaiveReadyOp>,
                                       std::greater<NaiveReadyOp>>;

}  // namespace

std::vector<int> CriticalPriorities(const graph::OpGraph& g) {
  // Downstream critical-path length (in ops) as static priority.
  const std::vector<graph::OpId> topo = g.TopologicalOrder();
  std::vector<int> critical_priority(static_cast<std::size_t>(g.num_ops()), 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const graph::OpId u = *it;
    int best = 0;
    for (auto ei : g.out_edges(u)) {
      const graph::OpId v = g.edges()[static_cast<std::size_t>(ei)].dst;
      best = std::max(best, critical_priority[static_cast<std::size_t>(v)] + 1);
    }
    critical_priority[static_cast<std::size_t>(u)] = best;
  }
  return critical_priority;
}

StepResult RunReference(const graph::OpGraph& g, const ClusterSpec& cluster,
                        const Placement& placement, const FaultDraw* faults,
                        bool record_schedule) {
  return RunReference(g, cluster, CriticalPriorities(g), placement, faults,
                      record_schedule);
}

StepResult RunReference(const graph::OpGraph& g, const ClusterSpec& cluster,
                        const std::vector<int>& critical_priority,
                        const Placement& placement, const FaultDraw* faults,
                        bool record_schedule) {
  const int num_ops = g.num_ops();
  const int num_devices = cluster.num_devices();
  EAGLE_CHECK(placement.num_ops() == num_ops);
  const CostModel cost_model(cluster);

  const auto compute_scale = [faults](DeviceId d) {
    return faults == nullptr
               ? 1.0
               : faults->device_compute_scale[static_cast<std::size_t>(d)];
  };
  const auto link_scale = [&cluster, faults](DeviceId src, DeviceId dst) {
    return faults == nullptr
               ? 1.0
               : faults->link_scale[static_cast<std::size_t>(
                     cluster.link_channel(src, dst))];
  };

  StepResult result;
  result.device_busy_seconds.assign(static_cast<std::size_t>(num_devices), 0.0);
  result.device_peak_bytes.assign(static_cast<std::size_t>(num_devices), 0);
  result.device_param_bytes.assign(static_cast<std::size_t>(num_devices), 0);

  std::vector<double> ready_time(static_cast<std::size_t>(num_ops), 0.0);
  std::vector<double> finish_time(static_cast<std::size_t>(num_ops), 0.0);
  std::vector<int> pending_inputs(static_cast<std::size_t>(num_ops), 0);
  for (graph::OpId i = 0; i < num_ops; ++i) {
    pending_inputs[static_cast<std::size_t>(i)] =
        static_cast<int>(g.in_edges(i).size());
  }

  std::vector<double> device_free(static_cast<std::size_t>(num_devices), 0.0);
  std::vector<double> link_free(
      static_cast<std::size_t>(cluster.num_link_channels()), 0.0);
  std::vector<ReadyQueue> queues(static_cast<std::size_t>(num_devices));

  // Transfer dedup: (producer op, dst device, hashed bytes) -> arrival.
  struct TransferKey {
    std::uint64_t packed;
    bool operator==(const TransferKey& o) const { return packed == o.packed; }
  };
  struct TransferKeyHash {
    std::size_t operator()(const TransferKey& k) const {
      return std::hash<std::uint64_t>()(k.packed);
    }
  };
  std::unordered_map<TransferKey, double, TransferKeyHash> transfer_cache;
  auto make_key = [](graph::OpId src, DeviceId dst, std::int64_t bytes) {
    // 24 bits of op id, 8 of device, 32 of byte-size hash.
    const std::uint64_t bhash =
        static_cast<std::uint64_t>(bytes) * 0x9E3779B97F4A7C15ULL >> 32;
    return TransferKey{(static_cast<std::uint64_t>(src) << 40) |
                       (static_cast<std::uint64_t>(dst) << 32) | bhash};
  };

  int scheduled = 0;
  for (graph::OpId i = 0; i < num_ops; ++i) {
    if (pending_inputs[static_cast<std::size_t>(i)] == 0) {
      queues[static_cast<std::size_t>(placement.device(i))].push(
          NaiveReadyOp{0.0, critical_priority[static_cast<std::size_t>(i)], i});
    }
  }

  std::vector<std::vector<LiveInterval>> intervals(
      static_cast<std::size_t>(num_devices));
  std::unordered_map<std::uint64_t, std::size_t> live_slot;
  auto touch = [&](graph::OpId producer, DeviceId device, double start,
                   double end, std::int64_t bytes) {
    if (bytes <= 0) return;
    const std::uint64_t key = (static_cast<std::uint64_t>(producer) << 8) |
                              static_cast<std::uint64_t>(device);
    auto it = live_slot.find(key);
    if (it == live_slot.end()) {
      live_slot.emplace(key,
                        intervals[static_cast<std::size_t>(device)].size());
      intervals[static_cast<std::size_t>(device)].push_back(
          LiveInterval{start, end, bytes});
    } else {
      auto& iv = intervals[static_cast<std::size_t>(device)][it->second];
      iv.start = std::min(iv.start, start);
      iv.end = std::max(iv.end, end);
    }
  };

  while (scheduled < num_ops) {
    DeviceId best_dev = -1;
    double best_start = 0.0;
    int best_priority = -1;
    for (DeviceId d = 0; d < num_devices; ++d) {
      auto& q = queues[static_cast<std::size_t>(d)];
      if (q.empty()) continue;
      const NaiveReadyOp& head = q.top();
      const double start =
          std::max(head.ready_time, device_free[static_cast<std::size_t>(d)]);
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
    auto& q = queues[static_cast<std::size_t>(best_dev)];
    const graph::OpId u = q.top().op;
    q.pop();
    ++scheduled;

    const double start = best_start;
    const double compute =
        cost_model.ComputeSeconds(g.op(u), best_dev) * compute_scale(best_dev);
    const double finish = start + compute;
    finish_time[static_cast<std::size_t>(u)] = finish;
    device_free[static_cast<std::size_t>(best_dev)] = finish;
    result.device_busy_seconds[static_cast<std::size_t>(best_dev)] += compute;
    if (record_schedule) {
      result.schedule.push_back(ScheduledOp{u, best_dev, start, finish});
    }

    touch(u, best_dev, finish, finish, g.op(u).output_bytes());

    for (auto ei : g.out_edges(u)) {
      const graph::Edge& e = g.edges()[static_cast<std::size_t>(ei)];
      const DeviceId dst_dev = placement.device(e.dst);
      double arrival = finish;
      if (dst_dev != best_dev) {
        const TransferKey key = make_key(u, dst_dev, e.bytes);
        auto it = transfer_cache.find(key);
        if (it != transfer_cache.end()) {
          arrival = it->second;
        } else {
          auto& lf = link_free[static_cast<std::size_t>(
              cluster.link_channel(best_dev, dst_dev))];
          const double xfer_start = std::max(finish, lf);
          const double xfer =
              cost_model.TransferSeconds(best_dev, dst_dev, e.bytes) *
              link_scale(best_dev, dst_dev);
          arrival = xfer_start + xfer;
          lf = arrival;
          transfer_cache.emplace(key, arrival);
          result.transfer_seconds_total += xfer;
          result.transfer_bytes_total += e.bytes;
          result.num_transfers++;
          if (record_schedule) {
            result.transfers.push_back(ScheduledTransfer{
                u, best_dev, dst_dev, e.bytes, xfer_start, arrival});
          }
          touch(u, dst_dev, arrival, arrival, e.bytes);
        }
      }
      ready_time[static_cast<std::size_t>(e.dst)] =
          std::max(ready_time[static_cast<std::size_t>(e.dst)], arrival);
      if (--pending_inputs[static_cast<std::size_t>(e.dst)] == 0) {
        queues[static_cast<std::size_t>(dst_dev)].push(
            NaiveReadyOp{ready_time[static_cast<std::size_t>(e.dst)],
                         critical_priority[static_cast<std::size_t>(e.dst)],
                         e.dst});
      }
    }
    result.step_seconds = std::max(result.step_seconds, finish);

    for (auto ei : g.in_edges(u)) {
      const graph::Edge& e = g.edges()[static_cast<std::size_t>(ei)];
      touch(e.src, best_dev, start, finish,
            placement.device(e.src) == best_dev ? g.op(e.src).output_bytes()
                                                : e.bytes);
    }
  }

  for (graph::OpId i = 0; i < num_ops; ++i) {
    result.device_param_bytes[static_cast<std::size_t>(placement.device(i))] +=
        g.op(i).param_bytes;
  }
  for (DeviceId d = 0; d < num_devices; ++d) {
    const std::int64_t activation_peak =
        PeakLiveBytes(std::move(intervals[static_cast<std::size_t>(d)]));
    const std::int64_t peak =
        result.device_param_bytes[static_cast<std::size_t>(d)] +
        static_cast<std::int64_t>(static_cast<double>(activation_peak) *
                                  kActivationOverhead);
    result.device_peak_bytes[static_cast<std::size_t>(d)] = peak;
    if (peak > cluster.device(d).memory_bytes && !result.oom) {
      result.oom = true;
      result.oom_device = d;
    }
  }
  return result;
}

}  // namespace eagle::sim::naive
