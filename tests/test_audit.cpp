// Schedule-auditor tests: the real simulator must audit clean on every
// benchmark graph, and hand-broken schedules must each trip the
// invariant they violate (sim/audit.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "models/zoo.h"
#include "sim/audit.h"
#include "sim/placement.h"
#include "sim/simulator.h"

namespace eagle::sim {
namespace {

SimulatorOptions RecordingOptions() {
  SimulatorOptions options;
  options.record_schedule = true;
  return options;
}

// Round-robin over the GPUs: enough spread to exercise transfers,
// channel contention and per-device memory on every benchmark.
Placement RoundRobin(const graph::OpGraph& graph, const ClusterSpec& cluster) {
  const std::vector<DeviceId> gpus = cluster.Gpus();
  std::vector<DeviceId> devices(static_cast<std::size_t>(graph.num_ops()));
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    devices[static_cast<std::size_t>(i)] =
        gpus[static_cast<std::size_t>(i) % gpus.size()];
  }
  Placement placement(graph, std::move(devices));
  placement.Normalize(graph, cluster);
  return placement;
}

bool HasViolation(const AuditReport& report, const std::string& invariant) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const AuditViolation& v) {
                       return v.invariant == invariant;
                     });
}

struct Audited {
  graph::OpGraph graph;
  ClusterSpec cluster;
  Placement placement;
  StepResult result;
};

Audited RunBenchmark(models::Benchmark benchmark) {
  Audited out;
  models::ZooOptions zoo;
  zoo.reduced = true;
  out.graph = models::BuildBenchmark(benchmark, zoo);
  out.cluster = MakeDefaultCluster();
  out.placement = RoundRobin(out.graph, out.cluster);
  ExecutionSimulator sim(out.graph, out.cluster, RecordingOptions());
  out.result = sim.Run(out.placement);
  return out;
}

AuditReport Audit(const Audited& a) {
  return AuditSchedule(a.result, a.graph, a.cluster, a.placement);
}

TEST(AuditClean, InceptionV3) {
  const Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  ASSERT_FALSE(a.result.schedule.empty());
  ASSERT_FALSE(a.result.transfers.empty());
  const AuditReport report = Audit(a);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditClean, Gnmt) {
  const Audited a = RunBenchmark(models::Benchmark::kGNMT);
  const AuditReport report = Audit(a);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditClean, BertBase) {
  const Audited a = RunBenchmark(models::Benchmark::kBertBase);
  const AuditReport report = Audit(a);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditClean, TightMemoryClusterStaysConsistent) {
  // Under a shrunken-memory cluster the simulator may report OOM; the
  // auditor must still agree with whatever it reported.
  models::ZooOptions zoo;
  zoo.reduced = true;
  const auto graph =
      models::BuildBenchmark(models::Benchmark::kInceptionV3, zoo);
  const auto cluster = MakeScaledCluster(0.02).value();
  const Placement placement = RoundRobin(graph, cluster);
  ExecutionSimulator sim(graph, cluster, RecordingOptions());
  const StepResult result = sim.Run(placement);
  const AuditReport report =
      AuditSchedule(result, graph, cluster, placement);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditClean, ZeroLengthOpSharingAStartTime) {
  // With no launch overhead, an op with no flops and no output runs in
  // zero time. `a` outranks `b` (it has a successor), so at the instant
  // `src` finishes the device runs a over [t, t], then the lower-numbered
  // b over [t, t + d]: two ops starting together without overlapping.
  HierarchicalClusterOptions options;
  options.num_nodes = 1;
  options.gpu_launch_overhead_us = 0.0;
  const ClusterSpec cluster = MakeHierarchicalCluster(options);
  graph::OpGraph g;
  const auto add = [&g](const char* name, double flops,
                        graph::TensorShape shape) {
    graph::OpDef op;
    op.name = name;
    op.type = graph::OpType::kMatMul;
    op.flops = flops;
    op.output_shape = std::move(shape);
    return g.AddOp(op);
  };
  const graph::OpId src = add("src", 1e6, graph::TensorShape{16});
  const graph::OpId b = add("b", 1e6, graph::TensorShape{16});
  const graph::OpId a = add("a", 0.0, graph::TensorShape{0});
  const graph::OpId c = add("c", 1e6, graph::TensorShape{16});
  g.AddEdge(src, b);
  g.AddEdge(src, a);
  g.AddEdge(a, c);
  const Placement placement =
      Placement::AllOnDevice(g, cluster, cluster.Gpus().front());
  const StepResult result =
      ExecutionSimulator(g, cluster, RecordingOptions()).Run(placement);
  ASSERT_EQ(result.schedule.size(), 4u);
  ASSERT_EQ(result.schedule[1].op, a);
  ASSERT_EQ(result.schedule[2].op, b);
  EXPECT_EQ(result.schedule[1].start_seconds,
            result.schedule[2].start_seconds);
  const AuditReport report =
      AuditSchedule(result, g, cluster, placement);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditBroken, TimeRegression) {
  Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  ScheduledOp& victim = a.result.schedule[a.result.schedule.size() / 2];
  victim.end_seconds = victim.start_seconds - 1.0;
  const AuditReport report = Audit(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "device-monotonic")) << report.ToString();
}

TEST(AuditBroken, MissingOp) {
  Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  a.result.schedule.pop_back();
  const AuditReport report = Audit(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "schedule-complete")) << report.ToString();
}

TEST(AuditBroken, ConsumerStartsBeforePredecessor) {
  Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  // Pull an op with predecessors back to time zero: it now starts before
  // its inputs exist.
  for (ScheduledOp& rec : a.result.schedule) {
    if (!a.graph.in_edges(rec.op).empty() && rec.start_seconds > 0.0) {
      rec.end_seconds -= rec.start_seconds;
      rec.start_seconds = 0.0;
      break;
    }
  }
  const AuditReport report = Audit(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "precedence")) << report.ToString();
}

TEST(AuditBroken, RemovedTransfer) {
  Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  ASSERT_FALSE(a.result.transfers.empty());
  a.result.num_transfers -= 1;
  a.result.transfer_bytes_total -= a.result.transfers.front().bytes;
  a.result.transfers.erase(a.result.transfers.begin());
  const AuditReport report = Audit(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "transfer-missing")) << report.ToString();
}

TEST(AuditBroken, OverlappingChannelTransfers) {
  Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  auto& transfers = a.result.transfers;
  // Find two transfers serialized on one channel and slide the later one
  // under the earlier.
  bool tampered = false;
  for (std::size_t i = 0; i < transfers.size() && !tampered; ++i) {
    for (std::size_t j = i + 1; j < transfers.size() && !tampered; ++j) {
      if (a.cluster.link_channel(transfers[i].src, transfers[i].dst) !=
          a.cluster.link_channel(transfers[j].src, transfers[j].dst)) {
        continue;
      }
      ScheduledTransfer& early =
          transfers[i].start_seconds <= transfers[j].start_seconds
              ? transfers[i]
              : transfers[j];
      ScheduledTransfer& late =
          transfers[i].start_seconds <= transfers[j].start_seconds
              ? transfers[j]
              : transfers[i];
      if (late.start_seconds < early.end_seconds) continue;  // already odd
      late.start_seconds = early.start_seconds;
      tampered = true;
    }
  }
  ASSERT_TRUE(tampered);
  const AuditReport report = Audit(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "transfer-channel-overlap"))
      << report.ToString();
}

TEST(AuditBroken, LeakedAllocation) {
  Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  // Understate one device's peak: the liveness replay allocates more
  // than the result admits to — a leak in the accounting.
  bool tampered = false;
  for (auto& peak : a.result.device_peak_bytes) {
    if (peak > 0) {
      peak -= 1;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const AuditReport report = Audit(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "memory-accounting")) << report.ToString();
}

TEST(AuditBroken, FalseOom) {
  Audited a = RunBenchmark(models::Benchmark::kInceptionV3);
  ASSERT_FALSE(a.result.oom);
  a.result.oom = true;
  a.result.oom_device = a.cluster.Gpus().front();
  const AuditReport report = Audit(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "oom-consistency")) << report.ToString();
}

TEST(AuditReportTest, ToStringListsViolations) {
  AuditReport report;
  report.violations.push_back(AuditViolation{"precedence", "op 3 too early"});
  report.dropped = 2;
  const std::string text = report.ToString();
  EXPECT_NE(text.find("3 schedule-invariant violation(s)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("[precedence]"), std::string::npos);
  EXPECT_NE(text.find("2 more"), std::string::npos);
}

}  // namespace
}  // namespace eagle::sim
