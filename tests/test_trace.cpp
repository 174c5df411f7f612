#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "models/synthetic.h"
#include "sim/trace.h"
#include "support/json.h"

namespace eagle::sim {
namespace {

StepResult RunRecorded(const graph::OpGraph& graph,
                       const ClusterSpec& cluster,
                       const Placement& placement) {
  SimulatorOptions options;
  options.record_schedule = true;
  ExecutionSimulator simulator(graph, cluster, options);
  return simulator.Run(placement);
}

TEST(Trace, ScheduleCoversEveryOp) {
  auto graph = models::BuildParallelChains(3, 5);
  const auto cluster = MakeDefaultCluster();
  const auto result = RunRecorded(
      graph, cluster, Placement::AllOnDevice(graph, cluster, 1));
  EXPECT_EQ(static_cast<int>(result.schedule.size()), graph.num_ops());
  for (const auto& op : result.schedule) {
    EXPECT_GE(op.start_seconds, 0.0);
    EXPECT_GE(op.end_seconds, op.start_seconds);
    EXPECT_LE(op.end_seconds, result.step_seconds + 1e-12);
  }
}

TEST(Trace, ScheduleRespectsDependencies) {
  auto graph = models::BuildChain(8);
  const auto cluster = MakeDefaultCluster();
  const auto result = RunRecorded(
      graph, cluster, Placement::AllOnDevice(graph, cluster, 1));
  std::vector<double> end(static_cast<std::size_t>(graph.num_ops()));
  for (const auto& op : result.schedule) {
    end[static_cast<std::size_t>(op.op)] = op.end_seconds;
  }
  for (const auto& op : result.schedule) {
    for (auto ei : graph.in_edges(op.op)) {
      const auto src = graph.edges()[static_cast<std::size_t>(ei)].src;
      EXPECT_GE(op.start_seconds + 1e-12,
                end[static_cast<std::size_t>(src)]);
    }
  }
}

TEST(Trace, NotRecordedByDefault) {
  auto graph = models::BuildChain(4);
  const auto cluster = MakeDefaultCluster();
  ExecutionSimulator simulator(graph, cluster);
  const auto result =
      simulator.Run(Placement::AllOnDevice(graph, cluster, 1));
  EXPECT_TRUE(result.schedule.empty());
}

TEST(Trace, ChromeJsonWellFormedish) {
  auto graph = models::BuildParallelChains(2, 4);
  const auto cluster = MakeDefaultCluster();
  // Split chains across two GPUs to get transfers into the trace.
  std::vector<DeviceId> devices(static_cast<std::size_t>(graph.num_ops()), 1);
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    if (graph.op(i).layer == "chain1") devices[static_cast<std::size_t>(i)] = 2;
  }
  Placement placement(graph, devices);
  placement.Normalize(graph, cluster);
  const auto result = RunRecorded(graph, cluster, placement);
  ASSERT_GT(result.transfers.size(), 0u);

  const std::string json = ToChromeTrace(result, graph, cluster);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"compute\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Trace, ChromeJsonEscapesControlBytes) {
  graph::OpGraph graph;
  graph::OpDef op;
  op.name = std::string("a") + '\x01' + "b";
  graph.AddOp(op);
  const auto cluster = MakeDefaultCluster();
  const auto result = RunRecorded(
      graph, cluster, Placement::AllOnDevice(graph, cluster, 1));
  const std::string json = ToChromeTrace(result, graph, cluster);
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
  std::string error;
  EXPECT_TRUE(support::json::Value::Parse(json, &error).is_object())
      << error;
}

TEST(Trace, ChromeJsonRequiresRecording) {
  auto graph = models::BuildChain(3);
  const auto cluster = MakeDefaultCluster();
  ExecutionSimulator simulator(graph, cluster);
  const auto result =
      simulator.Run(Placement::AllOnDevice(graph, cluster, 1));
  EXPECT_THROW(ToChromeTrace(result, graph, cluster), std::logic_error);
}

TEST(CriticalPath, ChainAttributesAllCompute) {
  auto graph = models::BuildChain(6, 1 << 10, 1e9);
  const auto cluster = MakeDefaultCluster();
  const auto result = RunRecorded(
      graph, cluster, Placement::AllOnDevice(graph, cluster, 1));
  const auto report = AnalyzeCriticalPath(result, graph);
  // A single-device chain IS the critical path: all compute, no waiting.
  EXPECT_EQ(static_cast<int>(report.path.size()), graph.num_ops());
  EXPECT_NEAR(report.compute_seconds, result.step_seconds, 1e-9);
  EXPECT_NEAR(report.queue_seconds, 0.0, 1e-9);
  EXPECT_NEAR(report.transfer_seconds, 0.0, 1e-12);
}

TEST(CriticalPath, CrossDeviceChainSeesTransfers) {
  auto graph = models::BuildChain(6, 1 << 20, 1e8);
  const auto cluster = MakeDefaultCluster();
  std::vector<DeviceId> devices(static_cast<std::size_t>(graph.num_ops()));
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    devices[static_cast<std::size_t>(i)] = 1 + (i % 2);
  }
  Placement placement(graph, devices);
  placement.Normalize(graph, cluster);
  const auto result = RunRecorded(graph, cluster, placement);
  const auto report = AnalyzeCriticalPath(result, graph);
  EXPECT_GT(report.transfer_seconds, 0.0);
  // compute + transfer + queue accounts for (at least most of) the step.
  EXPECT_GE(report.compute_seconds + report.transfer_seconds +
                report.queue_seconds,
            result.step_seconds * 0.9);
}

// Hand-built two-device schedule with known numbers, so each of the three
// attribution components is pinned exactly rather than bounded:
//
//   device 0: A computes [0, 1]        A --(transfer [1.0, 1.5])--> C
//   device 1: D computes [0, 2], then C computes [2, 3]
//
// C is the sink (finishes last). Its input from A arrives at 1.5 but the
// device is busy with D until 2.0, so the walk attributes 0.5 s of
// queueing and 0.5 s of transfer; compute is A + C = 2.0 s. All three
// components sum to the 3.0 s step.
TEST(CriticalPath, HandBuiltScheduleAttributesExactComponents) {
  graph::OpGraph graph;
  auto add_op = [&graph](const std::string& name) {
    graph::OpDef op;
    op.name = name;
    return graph.AddOp(op);
  };
  const graph::OpId a = add_op("A");
  const graph::OpId d = add_op("D");
  const graph::OpId c = add_op("C");
  graph.AddEdge(a, c, /*bytes=*/1 << 10);

  StepResult result;
  result.step_seconds = 3.0;
  result.schedule.push_back(ScheduledOp{a, /*device=*/0, 0.0, 1.0});
  result.schedule.push_back(ScheduledOp{d, /*device=*/1, 0.0, 2.0});
  result.schedule.push_back(ScheduledOp{c, /*device=*/1, 2.0, 3.0});
  result.transfers.push_back(
      ScheduledTransfer{a, /*src=*/0, /*dst=*/1, 1 << 10, 1.0, 1.5});

  const auto report = AnalyzeCriticalPath(result, graph);
  // Path is reported sink-first; the busy-but-off-path D is not on it.
  EXPECT_EQ(report.path, (std::vector<graph::OpId>{c, a}));
  EXPECT_EQ(report.compute_seconds, 2.0);
  EXPECT_EQ(report.transfer_seconds, 0.5);
  EXPECT_EQ(report.queue_seconds, 0.5);
  EXPECT_EQ(report.compute_seconds + report.transfer_seconds +
                report.queue_seconds,
            result.step_seconds);

  const std::string text = report.ToString(graph);
  EXPECT_NE(text.find("2 ops"), std::string::npos);
  EXPECT_NE(text.find("sink op C"), std::string::npos);
}

graph::OpId AddOp(graph::OpGraph& graph, const std::string& name,
                  double flops) {
  graph::OpDef op;
  op.name = name;
  op.type = graph::OpType::kMatMul;
  op.flops = flops;
  op.output_shape = graph::TensorShape{16};
  return graph.AddOp(op);
}

const ScheduledTransfer& FindTransfer(const StepResult& result,
                                      graph::OpId producer,
                                      std::int64_t bytes) {
  for (const auto& t : result.transfers) {
    if (t.producer == producer && t.bytes == bytes) return t;
  }
  ADD_FAILURE() << "no transfer of " << bytes << " bytes from op "
                << producer;
  static const ScheduledTransfer kNone;
  return kNone;
}

// Cluster files allow up to 512 devices, so a device id is not a byte:
// with 258 devices, (op 0 → device 257) and (op 1 → device 1) are two
// different transfers, and the on-path one must be attributed.
TEST(CriticalPath, DeviceIdsAboveAByteKeepTheirOwnTransfer) {
  ClusterSpec cluster;
  for (int d = 0; d < 258; ++d) {
    DeviceSpec device;
    device.name = "/device:" + std::to_string(d);
    device.kind = d == 0 ? DeviceKind::kCPU : DeviceKind::kGPU;
    device.memory_bytes = 16LL << 30;
    cluster.AddDevice(device);
  }
  cluster.SetDefaultLink(LinkSpec{});
  graph::OpGraph graph;
  const graph::OpId a = AddOp(graph, "a", 1e6);
  const graph::OpId b = AddOp(graph, "b", 1e6);
  const graph::OpId c = AddOp(graph, "c", 1e11);  // finishes last
  const graph::OpId d = AddOp(graph, "d", 1e6);
  graph.AddEdge(a, c, 4 << 10);
  graph.AddEdge(b, d, 64 << 20);
  Placement placement(graph, {0, 2, 257, 1});
  placement.Normalize(graph, cluster);
  const auto result = RunRecorded(graph, cluster, placement);

  const auto report = AnalyzeCriticalPath(result, graph);
  EXPECT_EQ(report.path, (std::vector<graph::OpId>{c, a}));
  const ScheduledTransfer& on_path = FindTransfer(result, a, 4 << 10);
  EXPECT_EQ(report.transfer_seconds,
            on_path.end_seconds - on_path.start_seconds);
}

// The simulator sends one tensor per distinct byte size to a device, so
// one producer can have two transfers to one device. Here the first one
// sent (4 KiB, to x) gates the critical path s ← x ← p; the 64 MiB one
// (to y) is off it.
TEST(CriticalPath, TwoSizesToOneDeviceAttributeTheGatingSend) {
  const auto cluster = MakeDefaultCluster();
  graph::OpGraph graph;
  const graph::OpId p = AddOp(graph, "p", 1e6);
  const graph::OpId x = AddOp(graph, "x", 5e10);  // outlasts the 64 MiB
  const graph::OpId y = AddOp(graph, "y", 1e6);
  const graph::OpId s = AddOp(graph, "s", 1e6);
  graph.AddEdge(p, x, 4 << 10);
  graph.AddEdge(p, y, 64 << 20);
  graph.AddEdge(x, s);
  Placement placement(graph, {1, 2, 2, 2});
  placement.Normalize(graph, cluster);
  const auto result = RunRecorded(graph, cluster, placement);
  ASSERT_EQ(result.transfers.size(), 2u);
  ASSERT_EQ(result.transfers.front().bytes, 4 << 10);  // recorded first

  const auto report = AnalyzeCriticalPath(result, graph);
  EXPECT_EQ(report.path, (std::vector<graph::OpId>{s, x, p}));
  const ScheduledTransfer& on_path = FindTransfer(result, p, 4 << 10);
  EXPECT_EQ(report.transfer_seconds,
            on_path.end_seconds - on_path.start_seconds);
  EXPECT_NEAR(report.compute_seconds + report.transfer_seconds +
                  report.queue_seconds,
              result.step_seconds, 1e-12);
}

TEST(CriticalPath, EmptyScheduleHandled) {
  graph::OpGraph empty;
  StepResult result;
  const auto report = AnalyzeCriticalPath(result, empty);
  EXPECT_TRUE(report.path.empty());
}

}  // namespace
}  // namespace eagle::sim
