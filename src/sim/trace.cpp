#include "sim/trace.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "support/check.h"
#include "support/json.h"

namespace eagle::sim {

std::string ToChromeTrace(const StepResult& result,
                          const graph::OpGraph& graph,
                          const ClusterSpec& cluster) {
  EAGLE_CHECK_MSG(!result.schedule.empty() || graph.num_ops() == 0,
                  "no recorded schedule — enable "
                  "SimulatorOptions::record_schedule");
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& name, const std::string& category,
                  int pid, int tid, double start, double end) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << support::json::Escape(name) << "\",\"cat\":\""
       << category << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"ts\":" << start * 1e6 << ",\"dur\":" << (end - start) * 1e6
       << "}";
  };
  // Metadata: device names.
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << d
       << ",\"args\":{\"name\":\""
       << support::json::Escape(cluster.device(d).name) << "\"}}";
  }
  for (const auto& op : result.schedule) {
    emit(graph.op(op.op).name, "compute", 0, op.device, op.start_seconds,
         op.end_seconds);
  }
  // Links get their own pid so tracing tools group them separately.
  for (const auto& transfer : result.transfers) {
    const int link_tid =
        transfer.src * cluster.num_devices() + transfer.dst;
    emit(graph.op(transfer.producer).name + " (" +
             std::to_string(transfer.bytes >> 10) + " KB)",
         "transfer", 1, link_tid, transfer.start_seconds,
         transfer.end_seconds);
  }
  os << "]}";
  return os.str();
}

CriticalPathReport AnalyzeCriticalPath(const StepResult& result,
                                       const graph::OpGraph& graph) {
  CriticalPathReport report;
  if (result.schedule.empty()) return report;

  std::unordered_map<graph::OpId, const ScheduledOp*> by_op;
  for (const auto& op : result.schedule) by_op[op.op] = &op;
  // Transfers under the simulator's dedup key: one send per (producer,
  // dst device, bytes).
  std::map<std::tuple<graph::OpId, DeviceId, std::int64_t>,
           const ScheduledTransfer*>
      by_transfer;
  for (const auto& t : result.transfers) {
    by_transfer[{t.producer, t.dst, t.bytes}] = &t;
  }

  // Start from the op that finishes last.
  const ScheduledOp* current = &result.schedule[0];
  for (const auto& op : result.schedule) {
    if (op.end_seconds > current->end_seconds) current = &op;
  }

  while (current != nullptr) {
    report.path.push_back(current->op);
    report.compute_seconds += current->end_seconds - current->start_seconds;

    // Which input (or device queue) gated this op's start?
    const ScheduledOp* gating_op = nullptr;
    double gating_ready = 0.0;
    const ScheduledTransfer* gating_transfer = nullptr;
    for (auto ei : graph.in_edges(current->op)) {
      const graph::Edge& edge = graph.edges()[static_cast<std::size_t>(ei)];
      auto it = by_op.find(edge.src);
      if (it == by_op.end()) continue;
      double ready = it->second->end_seconds;
      const ScheduledTransfer* transfer = nullptr;
      if (it->second->device != current->device) {
        auto tit =
            by_transfer.find({edge.src, current->device, edge.bytes});
        if (tit != by_transfer.end()) {
          transfer = tit->second;
          ready = transfer->end_seconds;
        }
      }
      if (ready > gating_ready) {
        gating_ready = ready;
        gating_op = it->second;
        gating_transfer = transfer;
      }
    }
    // Gap between the gating input being ready and this op starting is
    // queueing (the device was busy with other work).
    report.queue_seconds +=
        std::max(0.0, current->start_seconds - gating_ready);
    if (gating_transfer != nullptr) {
      report.transfer_seconds +=
          gating_transfer->end_seconds - gating_transfer->start_seconds;
    }
    current = gating_op;
  }
  return report;
}

std::string CriticalPathReport::ToString(const graph::OpGraph& graph) const {
  std::ostringstream os;
  os << "critical path: " << path.size() << " ops; compute "
     << compute_seconds << " s, transfer " << transfer_seconds
     << " s, queueing " << queue_seconds << " s";
  if (!path.empty()) {
    os << "; sink op " << graph.op(path.front()).name;
  }
  return os.str();
}

}  // namespace eagle::sim
