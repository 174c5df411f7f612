// Tests for link contention channels (shared PCIe root complex).
#include <gtest/gtest.h>

#include "models/synthetic.h"
#include "sim/simulator.h"

namespace eagle {
namespace {

TEST(LinkChannels, DefaultChannelsDistinct) {
  const auto cluster = sim::MakeDefaultCluster();
  // Every directed pair gets its own channel by default.
  EXPECT_NE(cluster.link_channel(0, 1), cluster.link_channel(0, 2));
  EXPECT_NE(cluster.link_channel(0, 1), cluster.link_channel(1, 0));
  EXPECT_LT(cluster.link_channel(0, 1), cluster.num_link_channels());
}

TEST(LinkChannels, SharedHostBusMapsHostLinks) {
  sim::ClusterOptions options;
  options.shared_host_bus = true;
  const auto cluster = sim::MakeDefaultCluster(options);
  EXPECT_EQ(cluster.link_channel(0, 1), cluster.link_channel(0, 2));
  EXPECT_EQ(cluster.link_channel(1, 0), cluster.link_channel(3, 0));
  // GPU-peer links stay independent.
  EXPECT_NE(cluster.link_channel(1, 2), cluster.link_channel(1, 3));
}

TEST(LinkChannels, SharedBusSlowsConcurrentHostTransfers) {
  // One producer on CPU feeding big tensors to consumers on all four
  // GPUs: with independent host links the four transfers overlap; with a
  // shared bus they serialize and the step takes longer.
  graph::OpGraph g;
  graph::OpDef src;
  src.name = "src";
  src.type = graph::OpType::kPlaceholder;
  src.output_shape = graph::TensorShape{1 << 24};  // 64 MB
  src.cpu_only = true;
  g.AddOp(src);
  for (int i = 0; i < 4; ++i) {
    graph::OpDef sink;
    sink.name = "sink" + std::to_string(i);
    sink.type = graph::OpType::kMatMul;
    sink.flops = 1e6;
    sink.output_shape = graph::TensorShape{16};
    g.AddOp(sink);
    g.AddEdge(0, 1 + i);
  }
  std::vector<sim::DeviceId> devices{0, 1, 2, 3, 4};

  const auto independent = sim::MakeDefaultCluster();
  sim::Placement p1(g, devices);
  p1.Normalize(g, independent);
  const auto t_independent =
      sim::ExecutionSimulator(g, independent).Run(p1).step_seconds;

  sim::ClusterOptions shared_options;
  shared_options.shared_host_bus = true;
  const auto shared = sim::MakeDefaultCluster(shared_options);
  sim::Placement p2(g, devices);
  p2.Normalize(g, shared);
  const auto t_shared =
      sim::ExecutionSimulator(g, shared).Run(p2).step_seconds;

  EXPECT_GT(t_shared, t_independent * 2.0);
}

}  // namespace
}  // namespace eagle
