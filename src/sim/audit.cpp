#include "sim/audit.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "sim/memory_model.h"

namespace eagle::sim {

namespace {

// Scheduling times are sums of strictly positive costs; 1ns of slack
// absorbs double rounding without masking real regressions.
constexpr double kEps = 1e-9;
constexpr int kMaxViolations = 64;

class Reporter {
 public:
  explicit Reporter(AuditReport* report) : report_(report) {}

  void Add(const char* invariant, const std::string& detail) {
    if (static_cast<int>(report_->violations.size()) >= kMaxViolations) {
      ++report_->dropped;
      return;
    }
    report_->violations.push_back(AuditViolation{invariant, detail});
  }

 private:
  AuditReport* report_;
};

std::string OpLabel(const graph::OpGraph& graph, graph::OpId op) {
  std::ostringstream os;
  os << "op " << op;
  if (op >= 0 && op < graph.num_ops()) os << " (" << graph.op(op).name << ")";
  return os.str();
}

}  // namespace

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << violations.size() + dropped << " schedule-invariant violation(s)";
  for (const AuditViolation& v : violations) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  if (dropped > 0) os << "\n  ... and " << dropped << " more";
  return os.str();
}

AuditReport AuditSchedule(const StepResult& result,
                          const graph::OpGraph& graph,
                          const ClusterSpec& cluster,
                          const Placement& placement) {
  AuditReport report;
  Reporter add(&report);
  const int num_ops = graph.num_ops();
  const int num_devices = cluster.num_devices();
  if (placement.num_ops() != num_ops) {
    add.Add("schedule-complete",
            "placement covers " + std::to_string(placement.num_ops()) +
                " ops but the graph has " + std::to_string(num_ops));
    return report;
  }

  // --- Schedule completeness: every op exactly once, on its placed device.
  std::vector<int> seen(static_cast<std::size_t>(num_ops), 0);
  for (const ScheduledOp& rec : result.schedule) {
    if (rec.op < 0 || rec.op >= num_ops) {
      add.Add("schedule-complete", OpLabel(graph, rec.op) + " out of range");
      continue;
    }
    ++seen[static_cast<std::size_t>(rec.op)];
    if (rec.device < 0 || rec.device >= num_devices) {
      add.Add("schedule-complete",
              OpLabel(graph, rec.op) + " scheduled on invalid device " +
                  std::to_string(rec.device));
    } else if (placement.device(rec.op) != rec.device) {
      add.Add("schedule-complete",
              OpLabel(graph, rec.op) + " ran on device " +
                  std::to_string(rec.device) + " but is placed on " +
                  std::to_string(placement.device(rec.op)));
    }
    if (rec.end_seconds < rec.start_seconds - kEps ||
        rec.start_seconds < -kEps) {
      std::ostringstream os;
      os << OpLabel(graph, rec.op) << " has regressing time ["
         << rec.start_seconds << ", " << rec.end_seconds << "]";
      add.Add("device-monotonic", os.str());
    }
  }
  for (graph::OpId op = 0; op < num_ops; ++op) {
    if (seen[static_cast<std::size_t>(op)] != 1) {
      add.Add("schedule-complete",
              OpLabel(graph, op) + " scheduled " +
                  std::to_string(seen[static_cast<std::size_t>(op)]) +
                  " times (want 1)");
    }
  }
  if (!report.ok()) return report;  // downstream checks assume a 1:1 schedule

  // --- Per-device monotonicity: a device executes one op at a time.
  std::vector<std::vector<const ScheduledOp*>> per_device(
      static_cast<std::size_t>(num_devices));
  for (const ScheduledOp& rec : result.schedule) {
    per_device[static_cast<std::size_t>(rec.device)].push_back(&rec);
  }
  for (int d = 0; d < num_devices; ++d) {
    auto& ops = per_device[static_cast<std::size_t>(d)];
    // A zero-length op that starts with a longer one ran first, so ties
    // on start order by end.
    std::sort(ops.begin(), ops.end(),
              [](const ScheduledOp* a, const ScheduledOp* b) {
                if (a->start_seconds != b->start_seconds) {
                  return a->start_seconds < b->start_seconds;
                }
                if (a->end_seconds != b->end_seconds) {
                  return a->end_seconds < b->end_seconds;
                }
                return a->op < b->op;
              });
    for (std::size_t i = 1; i < ops.size(); ++i) {
      if (ops[i]->start_seconds < ops[i - 1]->end_seconds - kEps) {
        std::ostringstream os;
        os << OpLabel(graph, ops[i]->op) << " starts at "
           << ops[i]->start_seconds << " before "
           << OpLabel(graph, ops[i - 1]->op) << " ends at "
           << ops[i - 1]->end_seconds << " on device " << d;
        add.Add("device-monotonic", os.str());
      }
    }
  }

  // --- Transfers: endpoints, duration, departure after the producer.
  std::vector<const ScheduledOp*> by_op(static_cast<std::size_t>(num_ops));
  for (const ScheduledOp& rec : result.schedule) {
    by_op[static_cast<std::size_t>(rec.op)] = &rec;
  }
  // (producer, dst device, bytes) -> arrival. The simulator dedups on the
  // same triple (modulo its 32-bit byte hash), so the triple is unique.
  std::map<std::tuple<graph::OpId, DeviceId, std::int64_t>, double> arrival;
  for (const ScheduledTransfer& t : result.transfers) {
    if (t.producer < 0 || t.producer >= num_ops || t.src < 0 ||
        t.src >= num_devices || t.dst < 0 || t.dst >= num_devices ||
        t.src == t.dst) {
      add.Add("transfer-endpoints",
              "transfer of " + OpLabel(graph, t.producer) +
                  " has invalid endpoints " + std::to_string(t.src) + "->" +
                  std::to_string(t.dst));
      continue;
    }
    const ScheduledOp* producer = by_op[static_cast<std::size_t>(t.producer)];
    if (t.end_seconds < t.start_seconds - kEps) {
      std::ostringstream os;
      os << "transfer of " << OpLabel(graph, t.producer)
         << " has regressing time [" << t.start_seconds << ", "
         << t.end_seconds << "]";
      add.Add("device-monotonic", os.str());
    }
    if (producer->device != t.src) {
      add.Add("transfer-endpoints",
              "transfer of " + OpLabel(graph, t.producer) + " departs from " +
                  std::to_string(t.src) + " but the producer ran on " +
                  std::to_string(producer->device));
    }
    if (t.start_seconds < producer->end_seconds - kEps) {
      std::ostringstream os;
      os << "transfer of " << OpLabel(graph, t.producer) << " departs at "
         << t.start_seconds << " before the producer finishes at "
         << producer->end_seconds;
      add.Add("transfer-before-producer", os.str());
    }
    arrival[{t.producer, t.dst, t.bytes}] = t.end_seconds;
  }

  // --- Precedence: an op starts only after all predecessors complete and
  // all inbound cross-device tensors have arrived.
  for (const ScheduledOp& rec : result.schedule) {
    for (auto ei : graph.in_edges(rec.op)) {
      const graph::Edge& e = graph.edges()[static_cast<std::size_t>(ei)];
      const ScheduledOp* pred = by_op[static_cast<std::size_t>(e.src)];
      if (pred->device == rec.device) {
        if (rec.start_seconds < pred->end_seconds - kEps) {
          std::ostringstream os;
          os << OpLabel(graph, rec.op) << " starts at " << rec.start_seconds
             << " before its predecessor " << OpLabel(graph, e.src)
             << " finishes at " << pred->end_seconds;
          add.Add("precedence", os.str());
        }
        continue;
      }
      const auto it = arrival.find({e.src, rec.device, e.bytes});
      if (it == arrival.end()) {
        add.Add("transfer-missing",
                OpLabel(graph, rec.op) + " consumes " + OpLabel(graph, e.src) +
                    " across devices but no transfer to device " +
                    std::to_string(rec.device) + " was recorded");
        continue;
      }
      if (rec.start_seconds < it->second - kEps) {
        std::ostringstream os;
        os << OpLabel(graph, rec.op) << " starts at " << rec.start_seconds
           << " before its input from " << OpLabel(graph, e.src)
           << " arrives at " << it->second;
        add.Add("precedence", os.str());
      }
    }
  }

  // --- Channel ordering: transfers sharing a contention channel serialize.
  std::map<int, std::vector<const ScheduledTransfer*>> per_channel;
  for (const ScheduledTransfer& t : result.transfers) {
    per_channel[cluster.link_channel(t.src, t.dst)].push_back(&t);
  }
  for (auto& [channel, transfers] : per_channel) {
    std::sort(transfers.begin(), transfers.end(),
              [](const ScheduledTransfer* a, const ScheduledTransfer* b) {
                if (a->start_seconds != b->start_seconds) {
                  return a->start_seconds < b->start_seconds;
                }
                if (a->end_seconds != b->end_seconds) {
                  return a->end_seconds < b->end_seconds;
                }
                return a->producer < b->producer;
              });
    for (std::size_t i = 1; i < transfers.size(); ++i) {
      if (transfers[i]->start_seconds <
          transfers[i - 1]->end_seconds - kEps) {
        std::ostringstream os;
        os << "transfers of " << OpLabel(graph, transfers[i - 1]->producer)
           << " and " << OpLabel(graph, transfers[i]->producer)
           << " overlap on channel " << channel;
        add.Add("transfer-channel-overlap", os.str());
      }
    }
  }

  // --- Aggregate accounting: totals must equal what the timeline shows.
  std::int64_t bytes_total = 0;
  double max_transfer_end = 0.0;
  for (const ScheduledTransfer& t : result.transfers) {
    bytes_total += t.bytes;
    max_transfer_end = std::max(max_transfer_end, t.end_seconds);
  }
  if (result.num_transfers != static_cast<int>(result.transfers.size())) {
    add.Add("transfer-accounting",
            "num_transfers=" + std::to_string(result.num_transfers) +
                " but " + std::to_string(result.transfers.size()) +
                " transfers recorded");
  }
  if (result.transfer_bytes_total != bytes_total) {
    add.Add("transfer-accounting",
            "transfer_bytes_total=" +
                std::to_string(result.transfer_bytes_total) +
                " but the timeline moves " + std::to_string(bytes_total));
  }
  double max_end = 0.0;
  std::vector<double> busy(static_cast<std::size_t>(num_devices), 0.0);
  for (const ScheduledOp& rec : result.schedule) {
    max_end = std::max(max_end, rec.end_seconds);
    busy[static_cast<std::size_t>(rec.device)] +=
        rec.end_seconds - rec.start_seconds;
  }
  const double time_tol = kEps + 1e-6 * std::max(1.0, max_end);
  if (std::abs(result.step_seconds - max_end) > time_tol) {
    std::ostringstream os;
    os << "step_seconds=" << result.step_seconds
       << " but the last op finishes at " << max_end;
    add.Add("step-accounting", os.str());
  }
  if (max_transfer_end > max_end + time_tol) {
    std::ostringstream os;
    os << "a transfer arrives at " << max_transfer_end
       << " after the last op finishes at " << max_end
       << " — its consumer never ran";
    add.Add("step-accounting", os.str());
  }
  for (int d = 0; d < num_devices; ++d) {
    const double reported =
        result.device_busy_seconds[static_cast<std::size_t>(d)];
    if (std::abs(reported - busy[static_cast<std::size_t>(d)]) > time_tol) {
      std::ostringstream os;
      os << "device " << d << " busy_seconds=" << reported
         << " but scheduled ops sum to " << busy[static_cast<std::size_t>(d)];
      add.Add("busy-accounting", os.str());
    }
  }

  // --- Memory conservation: replay the liveness accounting from the
  // recorded timeline and require the reported per-device bytes to match
  // exactly (the replay mirrors the simulator's touch sequence
  // bit-for-bit, so any mismatch is a leak or double-count).
  if (result.device_peak_bytes.size() !=
      static_cast<std::size_t>(num_devices)) {
    return report;
  }
  std::vector<std::vector<LiveInterval>> intervals(
      static_cast<std::size_t>(num_devices));
  std::map<std::pair<graph::OpId, DeviceId>, std::size_t> live_slot;
  auto touch = [&](graph::OpId producer, DeviceId device, double start,
                   double end, std::int64_t bytes) {
    if (bytes <= 0) return;
    const auto key = std::make_pair(producer, device);
    const auto it = live_slot.find(key);
    if (it == live_slot.end()) {
      live_slot.emplace(key, intervals[static_cast<std::size_t>(device)].size());
      intervals[static_cast<std::size_t>(device)].push_back(
          LiveInterval{start, end, bytes});
    } else {
      auto& iv = intervals[static_cast<std::size_t>(device)][it->second];
      iv.start = std::min(iv.start, start);
      iv.end = std::max(iv.end, end);
    }
  };
  std::set<std::tuple<graph::OpId, DeviceId, std::int64_t>> transfer_seen;
  for (const ScheduledOp& rec : result.schedule) {
    touch(rec.op, rec.device, rec.end_seconds, rec.end_seconds,
          graph.op(rec.op).output_bytes());
    for (auto ei : graph.out_edges(rec.op)) {
      const graph::Edge& e = graph.edges()[static_cast<std::size_t>(ei)];
      const DeviceId dst_dev = placement.device(e.dst);
      if (dst_dev == rec.device) continue;
      if (!transfer_seen.insert({rec.op, dst_dev, e.bytes}).second) continue;
      const auto it = arrival.find({rec.op, dst_dev, e.bytes});
      if (it != arrival.end()) {
        touch(rec.op, dst_dev, it->second, it->second, e.bytes);
      }
    }
    for (auto ei : graph.in_edges(rec.op)) {
      const graph::Edge& e = graph.edges()[static_cast<std::size_t>(ei)];
      touch(e.src, rec.device, rec.start_seconds, rec.end_seconds,
            placement.device(e.src) == rec.device
                ? graph.op(e.src).output_bytes()
                : e.bytes);
    }
  }
  bool any_over_capacity = false;
  DeviceId first_over_capacity = -1;
  for (int d = 0; d < num_devices; ++d) {
    std::int64_t params = 0;
    for (graph::OpId op = 0; op < num_ops; ++op) {
      if (placement.device(op) == d) params += graph.op(op).param_bytes;
    }
    if (result.device_param_bytes[static_cast<std::size_t>(d)] != params) {
      add.Add("memory-accounting",
              "device " + std::to_string(d) + " reports " +
                  std::to_string(result.device_param_bytes[
                      static_cast<std::size_t>(d)]) +
                  " param bytes but placed ops hold " +
                  std::to_string(params));
    }
    const std::int64_t activation_peak =
        PeakLiveBytes(std::move(intervals[static_cast<std::size_t>(d)]));
    const std::int64_t peak =
        params + static_cast<std::int64_t>(
                     static_cast<double>(activation_peak) *
                     kActivationOverhead);
    const std::int64_t reported =
        result.device_peak_bytes[static_cast<std::size_t>(d)];
    if (reported != peak) {
      add.Add("memory-accounting",
              "device " + std::to_string(d) + " reports peak " +
                  std::to_string(reported) + " bytes but the liveness "
                  "replay allocates " + std::to_string(peak) +
                  " (params " + std::to_string(params) + " + activations " +
                  std::to_string(activation_peak) + ")");
    }
    if (peak > cluster.device(d).memory_bytes) {
      any_over_capacity = true;
      if (first_over_capacity < 0) first_over_capacity = d;
    }
  }
  if (result.oom && !any_over_capacity) {
    add.Add("oom-consistency",
            "result reports OOM on device " +
                std::to_string(result.oom_device) +
                " but no device exceeds its capacity");
  } else if (!result.oom && any_over_capacity) {
    add.Add("oom-consistency",
            "device " + std::to_string(first_over_capacity) +
                " exceeds its capacity but the result does not report OOM");
  } else if (result.oom && result.oom_device != first_over_capacity) {
    add.Add("oom-consistency",
            "result reports OOM on device " +
                std::to_string(result.oom_device) +
                " but the first device over capacity is " +
                std::to_string(first_over_capacity));
  }
  return report;
}

}  // namespace eagle::sim
