#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "models/fuzz_corpus.h"
#include "models/synthetic.h"
#include "models/zoo.h"
#include "partition/metis_like.h"
#include "sim/cost_model.h"
#include "sim/fault.h"
#include "sim/measurement.h"
#include "sim/memory_model.h"
#include "sim/naive_ref.h"
#include "sim/placement.h"
#include "sim/simulator.h"

namespace eagle::sim {
namespace {

using graph::OpDef;
using graph::OpGraph;
using graph::OpType;
using graph::TensorShape;

ClusterSpec TwoGpuCluster() {
  ClusterOptions options;
  options.num_gpus = 2;
  return MakeDefaultCluster(options);
}

std::vector<DeviceId> RandomDevices(const OpGraph& g,
                                    const ClusterSpec& cluster,
                                    support::Rng& rng) {
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  for (auto& d : devices) {
    d = static_cast<DeviceId>(
        rng.NextBelow(static_cast<std::uint64_t>(cluster.num_devices())));
  }
  return devices;
}

TEST(Cluster, DefaultShape) {
  const auto cluster = MakeDefaultCluster();
  EXPECT_EQ(cluster.num_devices(), 5);  // CPU + 4 GPUs
  EXPECT_EQ(cluster.FirstCpu(), 0);
  EXPECT_EQ(cluster.Gpus().size(), 4u);
  EXPECT_EQ(cluster.device(0).kind, DeviceKind::kCPU);
}

TEST(Cluster, ScaledMemory) {
  const auto half = MakeScaledCluster(0.5).value();
  const auto full = MakeDefaultCluster();
  EXPECT_EQ(half.device(1).memory_bytes, full.device(1).memory_bytes / 2);
}

TEST(CostModel, MonotonicInFlops) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  OpDef small, big;
  small.flops = 1e6;
  big.flops = 1e9;
  small.output_shape = big.output_shape = TensorShape{1};
  EXPECT_LT(cost.ComputeSeconds(small, 1), cost.ComputeSeconds(big, 1));
}

TEST(CostModel, GpuFasterForHeavyOps) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  OpDef heavy;
  heavy.flops = 1e10;
  heavy.output_shape = TensorShape{1024};
  EXPECT_LT(cost.ComputeSeconds(heavy, 1), cost.ComputeSeconds(heavy, 0));
}

TEST(CostModel, CpuFasterForTinyOps) {
  // The effect the paper reports on Inception-V3: "some operations are
  // actually running faster on the CPU devices".
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  OpDef tiny;
  tiny.flops = 1e3;
  tiny.output_shape = TensorShape{8};
  EXPECT_LT(cost.ComputeSeconds(tiny, 0), cost.ComputeSeconds(tiny, 1));
}

TEST(CostModel, TransferZeroSameDevice) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  EXPECT_DOUBLE_EQ(cost.TransferSeconds(1, 1, 1 << 20), 0.0);
  EXPECT_GT(cost.TransferSeconds(1, 2, 1 << 20), 0.0);
}

TEST(CostModel, TransferScalesWithBytes) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  const double small = cost.TransferSeconds(1, 2, 1 << 10);
  const double large = cost.TransferSeconds(1, 2, 1 << 30);
  EXPECT_GT(large, small * 100);
}

TEST(Placement, CpuOnlyPinned) {
  OpGraph g;
  OpDef a;
  a.name = "lookup";
  a.type = OpType::kEmbeddingLookup;
  a.cpu_only = true;
  a.output_shape = TensorShape{4};
  g.AddOp(a);
  const auto cluster = MakeDefaultCluster();
  auto placement = Placement::AllOnDevice(g, cluster, 2);
  EXPECT_EQ(placement.device(0), cluster.FirstCpu());
}

TEST(Placement, ColocationCollapsesToLeader) {
  OpGraph g;
  for (int i = 0; i < 3; ++i) {
    OpDef op;
    op.name = "n" + std::to_string(i);
    op.output_shape = TensorShape{4};
    op.colocation_group = i < 2 ? 0 : -1;
    g.AddOp(op);
  }
  const auto cluster = MakeDefaultCluster();
  Placement placement(g, {1, 3, 2});
  placement.Normalize(g, cluster);
  EXPECT_EQ(placement.device(1), placement.device(0));  // follows leader
  EXPECT_EQ(placement.device(2), 2);                    // untouched
}

TEST(Placement, CpuOnlyDragsColocationGroup) {
  OpGraph g;
  OpDef pinned;
  pinned.name = "pinned";
  pinned.cpu_only = true;
  pinned.colocation_group = 0;
  pinned.output_shape = TensorShape{4};
  g.AddOp(pinned);
  OpDef friend_op;
  friend_op.name = "friend";
  friend_op.colocation_group = 0;
  friend_op.output_shape = TensorShape{4};
  g.AddOp(friend_op);
  const auto cluster = MakeDefaultCluster();
  Placement placement(g, {1, 2});
  placement.Normalize(g, cluster);
  EXPECT_EQ(placement.device(0), cluster.FirstCpu());
  EXPECT_EQ(placement.device(1), cluster.FirstCpu());
}

TEST(Placement, NormalizeHandlesImportedGroupIds) {
  // Imported colocation ids are arbitrary non-negative int32s, not
  // 0..k-1: draw them from a few hundred values spread up to 2^31-1 so
  // groups collide in the dense-id table, and check every op against the
  // rule stated directly: a group follows its first op's device, or the
  // CPU when any member is cpu_only.
  const auto cluster = MakeDefaultCluster();
  support::Rng rng(29);
  std::vector<std::int32_t> ids;
  for (int k = 0; k < 300; ++k) {
    ids.push_back(k < 2 ? std::numeric_limits<std::int32_t>::max() - k
                        : static_cast<std::int32_t>(rng.NextBelow(1u << 31)));
  }
  OpGraph g;
  for (int i = 0; i < 3000; ++i) {
    OpDef op;
    op.name = "op" + std::to_string(i);
    op.output_shape = TensorShape{4};
    op.cpu_only = rng.NextBelow(50) == 0;
    if (rng.NextBelow(3) != 0) {
      op.colocation_group = ids[rng.NextBelow(ids.size())];
    }
    g.AddOp(op);
  }
  Placement placement(g, RandomDevices(g, cluster, rng));
  const std::vector<DeviceId> raw = placement.devices();
  placement.Normalize(g, cluster);
  for (graph::OpId i = 0; i < g.num_ops(); ++i) {
    const OpDef& op = g.op(i);
    DeviceId want = op.cpu_only ? cluster.FirstCpu()
                                : raw[static_cast<std::size_t>(i)];
    if (op.colocation_group >= 0) {
      bool first = true;
      for (graph::OpId j = 0; j < g.num_ops(); ++j) {
        const OpDef& other = g.op(j);
        if (other.colocation_group != op.colocation_group) continue;
        if (first) {
          want = other.cpu_only ? cluster.FirstCpu()
                                : raw[static_cast<std::size_t>(j)];
          first = false;
        }
        if (other.cpu_only) want = cluster.FirstCpu();
      }
    }
    ASSERT_EQ(placement.device(i), want) << "op " << i;
  }
}

TEST(Placement, FromGroupsExpandsAndNormalizes) {
  // Ops 0 and 1 share colocation group 0; op 2 is CPU-pinned.
  OpGraph g;
  for (int i = 0; i < 4; ++i) {
    OpDef op;
    op.name = "n" + std::to_string(i);
    op.output_shape = TensorShape{4};
    op.colocation_group = i < 2 ? 0 : -1;
    op.cpu_only = i == 2;
    g.AddOp(op);
  }
  const auto cluster = MakeDefaultCluster();
  // Op 1's group says GPU 3, but it follows its colocation leader (op 0,
  // group 0 → GPU 2); op 2's group says GPU 3, but it is pinned to the CPU.
  const auto placement =
      Placement::FromGroups(g, cluster, {0, 1, 1, 1}, {2, 3});
  EXPECT_EQ(placement.devices(),
            (std::vector<DeviceId>{2, 2, cluster.FirstCpu(), 3}));
}

TEST(Placement, FromGroupsRejectsBadGroupings) {
  OpGraph g = models::BuildChain(2);  // input + 2 ops
  const auto cluster = MakeDefaultCluster();
  // Grouping shorter than the graph.
  EXPECT_THROW(Placement::FromGroups(g, cluster, {0, 1}, {1, 2}),
               std::logic_error);
  // Group ids outside the device decision, on either side.
  EXPECT_THROW(Placement::FromGroups(g, cluster, {0, 1, 2}, {1, 2}),
               std::logic_error);
  EXPECT_THROW(Placement::FromGroups(g, cluster, {0, -1, 1}, {1, 2}),
               std::logic_error);
}

TEST(Placement, HashDiffers) {
  OpGraph g = models::BuildChain(8);
  const auto cluster = MakeDefaultCluster();
  auto p1 = Placement::AllOnDevice(g, cluster, 1);
  auto p2 = Placement::AllOnDevice(g, cluster, 2);
  EXPECT_NE(p1.Hash(), p2.Hash());
}

TEST(Simulator, ChainSerializes) {
  // On one device a chain's step time is the sum of its op times.
  OpGraph g = models::BuildChain(10, 1 << 10, 1e9);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto result =
      simulator.Run(Placement::AllOnDevice(g, cluster, 1));
  CostModel cost(cluster);
  double expected = 0.0;
  for (graph::OpId i = 0; i < g.num_ops(); ++i) {
    expected += cost.ComputeSeconds(g.op(i), 1);
  }
  EXPECT_NEAR(result.step_seconds, expected, 1e-9);
  EXPECT_FALSE(result.oom);
}

TEST(Simulator, ParallelChainsBenefitFromTwoGpus) {
  OpGraph g = models::BuildParallelChains(2, 12, 1 << 10, 5e9);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto single = simulator.Run(Placement::AllOnDevice(g, cluster, 1));

  // Chain 0 on GPU1, chain 1 on GPU2.
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()), 1);
  for (graph::OpId i = 0; i < g.num_ops(); ++i) {
    if (g.op(i).layer == "chain1") devices[static_cast<std::size_t>(i)] = 2;
  }
  Placement split(g, devices);
  split.Normalize(g, cluster);
  const auto parallel = simulator.Run(split);
  EXPECT_LT(parallel.step_seconds, single.step_seconds * 0.7);
}

TEST(Simulator, StepAtLeastBusiestDevice) {
  support::Rng rng(5);
  models::RandomDagConfig config;
  config.layers = 8;
  config.width = 6;
  OpGraph g = models::BuildRandomDag(config, rng);
  const auto cluster = MakeDefaultCluster();
  ExecutionSimulator simulator(g, cluster);
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  for (auto& d : devices) d = static_cast<DeviceId>(rng.NextBelow(5));
  Placement placement(g, devices);
  placement.Normalize(g, cluster);
  const auto result = simulator.Run(placement);
  for (double busy : result.device_busy_seconds) {
    EXPECT_GE(result.step_seconds + 1e-12, busy);
  }
}

TEST(Simulator, TransferDedup) {
  // A variable read by many consumers on one remote device is shipped
  // once per step (TF send/recv dedup), not once per edge.
  OpGraph g;
  OpDef var;
  var.name = "w";
  var.type = OpType::kVariable;
  var.output_shape = TensorShape{1};
  var.param_bytes = 64 << 20;
  g.AddOp(var);
  for (int i = 0; i < 10; ++i) {
    OpDef use;
    use.name = "mm" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g.AddOp(use);
    g.AddEdge(0, 1 + i, 64 << 20);
  }
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  std::vector<DeviceId> devices(11, 2);
  devices[0] = 1;  // weights live on GPU1, consumers on GPU2
  Placement placement(g, devices);
  placement.Normalize(g, cluster);
  const auto result = simulator.Run(placement);
  EXPECT_EQ(result.num_transfers, 1);
  EXPECT_EQ(result.transfer_bytes_total, 64 << 20);
}

TEST(Simulator, CrossDeviceChainPaysTransfers) {
  OpGraph g = models::BuildChain(6, 1 << 20, 1e8);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto local = simulator.Run(Placement::AllOnDevice(g, cluster, 1));
  // Alternate devices along the chain: every edge crosses.
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  for (graph::OpId i = 0; i < g.num_ops(); ++i) {
    devices[static_cast<std::size_t>(i)] = 1 + (i % 2);
  }
  Placement alternating(g, devices);
  alternating.Normalize(g, cluster);
  const auto remote = simulator.Run(alternating);
  EXPECT_GT(remote.step_seconds, local.step_seconds);
  EXPECT_EQ(remote.num_transfers, g.num_edges());
}

TEST(MemoryModel, PeakSweep) {
  std::vector<LiveInterval> intervals{
      {0.0, 2.0, 100}, {1.0, 3.0, 50}, {2.5, 4.0, 75}};
  EXPECT_EQ(PeakLiveBytes(intervals), 150);
}

TEST(MemoryModel, FreeBeforeAllocAtSameTime) {
  std::vector<LiveInterval> intervals{{0.0, 1.0, 100}, {1.0, 2.0, 100}};
  EXPECT_EQ(PeakLiveBytes(intervals), 100);
}

TEST(MemoryModel, EmptyAndDegenerate) {
  EXPECT_EQ(PeakLiveBytes({}), 0);
  EXPECT_EQ(PeakLiveBytes({{1.0, 1.0, 100}}), 0);  // zero-length interval
}

TEST(Simulator, OomDetected) {
  OpGraph g;
  OpDef big;
  big.name = "big";
  big.type = OpType::kVariable;
  big.output_shape = TensorShape{1};
  big.param_bytes = 64LL << 30;  // 64 GB of parameters
  g.AddOp(big);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto result = simulator.Run(Placement::AllOnDevice(g, cluster, 1));
  EXPECT_TRUE(result.oom);
  EXPECT_EQ(result.oom_device, 1);
  // The CPU (120 GB) can hold it.
  const auto on_cpu = simulator.Run(Placement::AllOnDevice(g, cluster, 0));
  EXPECT_FALSE(on_cpu.oom);
}

// Exact StepResult equality (doubles compared with ==, not tolerance):
// the workspace simulator must reproduce the frozen reference bit for
// bit, since both fold the same costs in the same order.
void ExpectStepResultsIdentical(const StepResult& got,
                                const StepResult& want) {
  EXPECT_EQ(got.oom, want.oom);
  EXPECT_EQ(got.oom_device, want.oom_device);
  EXPECT_EQ(got.step_seconds, want.step_seconds);
  EXPECT_EQ(got.device_busy_seconds, want.device_busy_seconds);
  EXPECT_EQ(got.device_peak_bytes, want.device_peak_bytes);
  EXPECT_EQ(got.device_param_bytes, want.device_param_bytes);
  EXPECT_EQ(got.transfer_seconds_total, want.transfer_seconds_total);
  EXPECT_EQ(got.transfer_bytes_total, want.transfer_bytes_total);
  EXPECT_EQ(got.num_transfers, want.num_transfers);
  ASSERT_EQ(got.schedule.size(), want.schedule.size());
  for (std::size_t i = 0; i < got.schedule.size(); ++i) {
    EXPECT_EQ(got.schedule[i].op, want.schedule[i].op);
    EXPECT_EQ(got.schedule[i].device, want.schedule[i].device);
    EXPECT_EQ(got.schedule[i].start_seconds, want.schedule[i].start_seconds);
    EXPECT_EQ(got.schedule[i].end_seconds, want.schedule[i].end_seconds);
  }
  ASSERT_EQ(got.transfers.size(), want.transfers.size());
  for (std::size_t i = 0; i < got.transfers.size(); ++i) {
    EXPECT_EQ(got.transfers[i].producer, want.transfers[i].producer);
    EXPECT_EQ(got.transfers[i].src, want.transfers[i].src);
    EXPECT_EQ(got.transfers[i].dst, want.transfers[i].dst);
    EXPECT_EQ(got.transfers[i].bytes, want.transfers[i].bytes);
    EXPECT_EQ(got.transfers[i].start_seconds, want.transfers[i].start_seconds);
    EXPECT_EQ(got.transfers[i].end_seconds, want.transfers[i].end_seconds);
  }
}

TEST(Simulator, MatchesFrozenReferenceOnModelZoo) {
  // The hierarchical topologies add per-tier link rates, shared contention
  // channels (PCIe roots, NIC egress ports) and per-device speeds that the
  // single-root default cluster never exercises.
  const std::vector<std::pair<const char*, ClusterSpec>> clusters{
      {"default", MakeDefaultCluster()},
      {"2node8", MakeTwoNodeNvlinkIbCluster()},
      {"mixed", MakeMixedSpeedCluster()}};
  models::ZooOptions zoo;
  zoo.reduced = true;
  SimulatorOptions options;
  options.record_schedule = true;
  for (const auto& [cluster_name, cluster] : clusters) {
    SCOPED_TRACE(cluster_name);
    for (const auto benchmark : models::AllBenchmarks()) {
      SCOPED_TRACE(models::BenchmarkName(benchmark));
      const OpGraph g = models::BuildBenchmark(benchmark, zoo);
      ExecutionSimulator simulator(g, cluster, options);
      support::Rng rng(17);
      // Several runs on one simulator instance: the second and third reuse
      // the pooled workspace, so any state a run leaves behind shows up as
      // a mismatch against the allocate-fresh-every-time reference.
      for (int round = 0; round < 3; ++round) {
        Placement placement(g, RandomDevices(g, cluster, rng));
        placement.Normalize(g, cluster);
        ExpectStepResultsIdentical(
            simulator.Run(placement),
            naive::RunReference(g, cluster, placement, nullptr,
                                /*record_schedule=*/true));
      }
    }
  }
}

TEST(Simulator, SharedNicDedupMatchesFrozenReference) {
  // One producer on node 0 feeds consumers spread over both nodes of the
  // 2node8 cluster, so the deduped IB transfers all queue on node 0's
  // single NIC egress channel. Bouncing one consumer at a time changes
  // which transfers exist at all (dedup collapses same-destination
  // copies); every placement must match the frozen reference exactly.
  constexpr int kConsumers = 24;
  OpGraph g;
  OpDef producer;
  producer.name = "producer";
  producer.type = OpType::kMatMul;
  producer.flops = 5e7;
  producer.output_shape = TensorShape{256};
  g.AddOp(producer);
  for (int i = 0; i < kConsumers; ++i) {
    OpDef use;
    use.name = "use" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 5e6;
    use.output_shape = TensorShape{64};
    g.AddOp(use);
    // Half the consumers share a tensor size (dedup per destination
    // device), half are distinct.
    g.AddEdge(0, i + 1, (i % 2 == 0) ? 4096 : 4096 + i * 64);
  }
  const ClusterSpec cluster = MakeTwoNodeNvlinkIbCluster();
  SimulatorOptions options;
  options.record_schedule = true;
  const ExecutionSimulator simulator(g, cluster, options);
  support::Rng rng(67);
  const auto gpus = cluster.Gpus();
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  devices[0] = gpus[0];
  for (int i = 1; i <= kConsumers; ++i) {
    devices[static_cast<std::size_t>(i)] = gpus[rng.NextBelow(gpus.size())];
  }
  for (int move = 0; move < 20; ++move) {
    Placement placement(g, devices);
    placement.Normalize(g, cluster);
    ExpectStepResultsIdentical(
        simulator.Run(placement),
        naive::RunReference(g, cluster, placement, nullptr,
                            /*record_schedule=*/true));
    // Bounce one consumer to a random GPU (usually across the IB tier).
    const auto victim =
        1 + rng.NextBelow(static_cast<std::uint64_t>(kConsumers));
    devices[victim] = gpus[rng.NextBelow(gpus.size())];
  }
}

// A CPU and three GPUs on one default link tier; every op pays
// `overhead_us` of launch overhead and every transfer as much latency.
ClusterSpec TieCluster(double overhead_us) {
  ClusterSpec cluster;
  for (int d = 0; d < 4; ++d) {
    DeviceSpec spec;
    spec.name = d == 0 ? "/cpu:0" : "/gpu:" + std::to_string(d - 1);
    spec.kind = d == 0 ? DeviceKind::kCPU : DeviceKind::kGPU;
    spec.gflops = d == 0 ? 100.0 : 1000.0;
    spec.mem_bw_gbps = d == 0 ? 50.0 : 500.0;
    spec.launch_overhead_us = overhead_us;
    spec.memory_bytes = 1LL << 40;
    cluster.AddDevice(spec);
  }
  cluster.SetDefaultLink(LinkSpec{10.0, overhead_us});
  return cluster;
}

// A random DAG full of timestamp ties: ops with zero flops or an empty
// output (both, with no launch overhead, run in zero time), and edges
// that carry 0 bytes (with no latency, sent in zero time), a size
// repeated across consumers, or a distinct size.
OpGraph TieHeavyGraph(support::Rng& rng) {
  OpGraph g;
  const int num_ops = 8 + static_cast<int>(rng.NextBelow(40));
  for (int i = 0; i < num_ops; ++i) {
    OpDef op;
    op.name = "op" + std::to_string(i);
    op.type = OpType::kMatMul;
    op.flops = rng.NextBelow(3) == 0 ? 0.0 : 1e5 * (1 + rng.NextBelow(4));
    op.output_shape = rng.NextBelow(3) == 0
                          ? TensorShape{0}
                          : TensorShape{64 * (1 + rng.NextInt(0, 3))};
    g.AddOp(op);
    if (i == 0) continue;
    const int fanin = 1 + static_cast<int>(rng.NextBelow(3));
    std::vector<graph::OpId> producers;
    for (int f = 0; f < fanin; ++f) {
      const auto p = static_cast<graph::OpId>(
          rng.NextBelow(static_cast<std::uint64_t>(i)));
      if (std::find(producers.begin(), producers.end(), p) !=
          producers.end()) {
        continue;
      }
      producers.push_back(p);
      switch (rng.NextBelow(4)) {
        case 0: g.AddEdge(p, i, 0); break;
        case 1: g.AddEdge(p, i); break;  // the producer's output size
        case 2: g.AddEdge(p, i, 512); break;
        default: g.AddEdge(p, i, 4 * rng.NextInt(1, 1 << 12)); break;
      }
    }
  }
  return g;
}

TEST(Simulator, TieHeavyGraphsMatchFrozenReference) {
  // The sweep takes the running peak only after the last pick of each
  // run of equal finish times, because a zero-time pick late in the run
  // can free what an earlier pick of the run allocated. These graphs
  // produce such runs (and transfer arrivals that coincide with a finish
  // time) by the hundred; every placement must match the sort-based
  // reference exactly.
  SimulatorOptions options;
  options.record_schedule = true;
  support::Rng rng(71);
  int placements = 0;
  for (const double overhead : {0.0, 2.0}) {
    SCOPED_TRACE(overhead);
    const ClusterSpec cluster = TieCluster(overhead);
    for (int graph = 0; graph < 120; ++graph) {
      const OpGraph g = TieHeavyGraph(rng);
      const ExecutionSimulator simulator(g, cluster, options);
      for (int round = 0; round < 5; ++round, ++placements) {
        Placement placement(g, RandomDevices(g, cluster, rng));
        placement.Normalize(g, cluster);
        ExpectStepResultsIdentical(
            simulator.Run(placement),
            naive::RunReference(g, cluster, placement, nullptr,
                                /*record_schedule=*/true));
      }
    }
  }
  EXPECT_EQ(placements, 1200);
}

TEST(Simulator, MatchesFrozenReferenceOnGroupedPlacements) {
  // Post's shape: a 10k-op graph placed by its 16 METIS groups, so a
  // device's ready heap holds tens of ops at each pick, where the zoo
  // tests' per-op random placements keep the heaps short. One reused
  // simulator runs every placement, so each run's rebuild of the per-op
  // records is checked against a reference that allocates afresh.
  support::Rng graph_rng(40);
  models::FuzzGraphConfig config;
  config.num_ops = 5500;
  const OpGraph g = models::BuildFuzzGraph(config, graph_rng);
  ASSERT_GE(g.num_ops(), 10000);
  constexpr int kGroups = 16;
  partition::MetisOptions metis;
  metis.num_parts = kGroups;
  const graph::Grouping grouping = partition::MetisPartition(g, metis);
  const std::vector<std::pair<const char*, ClusterSpec>> clusters{
      {"default", MakeDefaultCluster()},
      {"2node8", MakeTwoNodeNvlinkIbCluster()}};
  SimulatorOptions options;
  options.record_schedule = true;
  for (const auto& [cluster_name, cluster] : clusters) {
    SCOPED_TRACE(cluster_name);
    const ExecutionSimulator simulator(g, cluster, options);
    const FaultInjector injector(
        FaultProfileFromString("straggler=0.5,link=0.5"), cluster);
    support::Rng rng(41);
    for (int round = 0; round < 3; ++round) {
      std::vector<DeviceId> group_devices(kGroups);
      for (DeviceId& d : group_devices) {
        d = static_cast<DeviceId>(
            rng.NextBelow(static_cast<std::uint64_t>(cluster.num_devices())));
      }
      const Placement placement =
          Placement::FromGroups(g, cluster, grouping, group_devices);
      const FaultDraw draw = injector.Draw(rng);
      ASSERT_TRUE(draw.HasPerfFaults());
      for (const FaultDraw* faults : {static_cast<const FaultDraw*>(nullptr),
                                      &draw}) {
        ExpectStepResultsIdentical(
            simulator.Run(placement, faults),
            naive::RunReference(g, cluster, placement, faults,
                                /*record_schedule=*/true));
      }
    }
  }
}

TEST(Simulator, MatchesFrozenReferenceUnderFaults) {
  const auto cluster = MakeDefaultCluster();
  const OpGraph g =
      models::BuildBenchmark(models::Benchmark::kInceptionV3, {true, true});
  SimulatorOptions options;
  options.record_schedule = true;
  ExecutionSimulator simulator(g, cluster, options);
  FaultDraw faults;
  faults.device_down.assign(static_cast<std::size_t>(cluster.num_devices()),
                            false);
  faults.device_compute_scale.assign(
      static_cast<std::size_t>(cluster.num_devices()), 1.0);
  faults.device_compute_scale[2] = 2.5;  // straggler GPU
  faults.link_scale.assign(
      static_cast<std::size_t>(cluster.num_link_channels()), 1.0);
  const FaultDraw healthy_links = faults;
  // Degrade the channels transfers use: every CPU<->GPU and GPU<->GPU
  // link (a device's link to itself carries no transfer).
  for (DeviceId src = 0; src < cluster.num_devices(); ++src) {
    for (DeviceId dst = 0; dst < cluster.num_devices(); ++dst) {
      if (src == dst) continue;
      faults.link_scale[static_cast<std::size_t>(
          cluster.link_channel(src, dst))] = 3.0;
    }
  }
  support::Rng rng(23);
  Placement placement(g, RandomDevices(g, cluster, rng));
  placement.Normalize(g, cluster);
  const StepResult degraded = simulator.Run(placement, &faults);
  ExpectStepResultsIdentical(
      degraded, naive::RunReference(g, cluster, placement, &faults,
                                    /*record_schedule=*/true));
  // The slow links alone lengthen the step.
  EXPECT_GT(degraded.step_seconds,
            simulator.Run(placement, &healthy_links).step_seconds);
}

TEST(Simulator, TransferDedupKeysOnExactBytes) {
  // Two transfers from one producer to the same device with different
  // byte sizes are distinct physical sends. The sizes below collide in
  // the retired 32-bit byte-size hash (1000·K and 2971216073·K share
  // their top 32 bits for K = 0x9E3779B97F4A7C15), which silently merged
  // them into one transfer; the exact (producer, dst, bytes) key keeps
  // both.
  constexpr std::int64_t kSmall = 1000;
  constexpr std::int64_t kLarge = 2971216073;  // kSmall + 2971215073
  OpGraph g;
  OpDef producer;
  producer.name = "producer";
  producer.type = OpType::kMatMul;
  producer.flops = 1e6;
  producer.output_shape = TensorShape{16};
  g.AddOp(producer);
  for (int i = 0; i < 2; ++i) {
    OpDef use;
    use.name = "use" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g.AddOp(use);
  }
  g.AddEdge(0, 1, kSmall);
  g.AddEdge(0, 2, kLarge);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  std::vector<DeviceId> devices{1, 2, 2};
  Placement placement(g, devices);
  placement.Normalize(g, cluster);

  const auto result = simulator.Run(placement);
  EXPECT_EQ(result.num_transfers, 2);
  EXPECT_EQ(result.transfer_bytes_total, kSmall + kLarge);

  // The frozen reference still has the collision: it merges the pair.
  const auto stale = naive::RunReference(g, cluster, placement);
  EXPECT_EQ(stale.num_transfers, 1);

  // Identical sizes still dedup to a single send.
  OpGraph g2;
  g2.AddOp(producer);
  for (int i = 0; i < 2; ++i) {
    OpDef use;
    use.name = "dup" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g2.AddOp(use);
  }
  g2.AddEdge(0, 1, kSmall);
  g2.AddEdge(0, 2, kSmall);
  ExecutionSimulator simulator2(g2, cluster);
  Placement placement2(g2, devices);
  placement2.Normalize(g2, cluster);
  const auto deduped = simulator2.Run(placement2);
  EXPECT_EQ(deduped.num_transfers, 1);
  EXPECT_EQ(deduped.transfer_bytes_total, kSmall);
}

TEST(Simulator, TransferDedupManyDistinctSizesPerSlot) {
  // Adversarial shape for a flat overflow list: one producer ships many
  // distinct tensor widths to one device, so every lookup would scan every
  // previous overflow entry. Correctness check: each distinct size is one
  // physical transfer, duplicates still dedup, and the result matches the
  // frozen reference bit-for-bit.
  constexpr int kConsumers = 48;
  OpGraph g;
  OpDef producer;
  producer.name = "producer";
  producer.type = OpType::kMatMul;
  producer.flops = 1e6;
  producer.output_shape = TensorShape{16};
  g.AddOp(producer);
  std::int64_t distinct_bytes = 0;
  for (int i = 0; i < kConsumers; ++i) {
    OpDef use;
    use.name = "use" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g.AddOp(use);
    // Every third consumer repeats the previous size — the dedup must
    // find it mid-chain, not just at the primary slot.
    const std::int64_t bytes =
        (i % 3 == 2) ? 1000 + (i - 1) * 8 : 1000 + i * 8;
    if (i % 3 != 2) distinct_bytes += bytes;
    g.AddEdge(0, i + 1, bytes);
  }
  const auto cluster = TwoGpuCluster();
  SimulatorOptions options;
  options.record_schedule = true;
  ExecutionSimulator simulator(g, cluster, options);
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()), 2);
  devices[0] = 1;
  Placement placement(g, devices);
  placement.Normalize(g, cluster);
  const auto result = simulator.Run(placement);
  EXPECT_EQ(result.num_transfers, kConsumers - kConsumers / 3);
  EXPECT_EQ(result.transfer_bytes_total, distinct_bytes);
  ExpectStepResultsIdentical(
      result, naive::RunReference(g, cluster, placement, nullptr,
                                  /*record_schedule=*/true));
}

// The ready-queue comparator the integer key replaced, kept as its
// oracle: ops ready earlier first, then the longer critical path, then
// the lower id.
struct ReadyOp {
  double ready_time;
  int priority;
  graph::OpId op;

  bool operator>(const ReadyOp& other) const {
    if (ready_time != other.ready_time) return ready_time > other.ready_time;
    if (priority != other.priority) return priority < other.priority;
    return op > other.op;
  }
};

TEST(SimWorkspace, ReadyKeyOrdersAsTheComparator) {
  // Triples drawn from small pools force ties on every field: equal times
  // (+0.0, a subnormal and the largest double among them), equal
  // priorities (0 and next to INT32_MAX among them) and equal ids.
  constexpr int kMax = std::numeric_limits<std::int32_t>::max();
  const std::vector<double> times{
      0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e-9,
      0.5,
      1.0,
      std::nextafter(1.0, 2.0),
      3.75,
      std::numeric_limits<double>::max()};
  const std::vector<int> priorities{0, 1, 2, 17, kMax - 2, kMax - 1, kMax};
  const std::vector<graph::OpId> ids{0, 1, 5, kMax - 1, kMax};
  support::Rng rng(29);
  // Each field comes from its pool three times in four, else at random.
  const auto draw = [&rng](const auto& pool, auto random) {
    return rng.NextBelow(4) != 0 ? pool[rng.NextBelow(pool.size())]
                                 : random();
  };
  std::vector<ReadyOp> ops;
  for (int i = 0; i < 600; ++i) {
    ReadyOp op{};
    op.ready_time = draw(times, [&rng] { return rng.NextDouble() * 8.0; });
    op.priority = draw(priorities, [&rng] {
      return static_cast<int>(rng.NextBelow(1 << 20));
    });
    op.op = draw(ids, [&rng] {
      return static_cast<graph::OpId>(rng.NextBelow(1 << 20));
    });
    ops.push_back(op);
  }
  for (const ReadyOp& a : ops) {
    const ReadyKey ka = MakeReadyKey(a.ready_time, a.priority, a.op);
    ASSERT_EQ(ReadyTimeOf(ka), a.ready_time);
    ASSERT_EQ(InversePriorityOf(ka),
              static_cast<std::uint32_t>(kMax - a.priority));
    ASSERT_EQ(OpOf(ka), a.op);
    for (const ReadyOp& b : ops) {
      const ReadyKey kb = MakeReadyKey(b.ready_time, b.priority, b.op);
      ASSERT_EQ(ka > kb, a > b)
          << a.ready_time << "/" << a.priority << "/" << a.op << " vs "
          << b.ready_time << "/" << b.priority << "/" << b.op;
    }
  }
}

TEST(SimWorkspace, PrepareHandlesShapeChanges) {
  SimWorkspace ws;
  ws.Prepare(4, 2, 8);
  // A run leaves per-device scratch behind; the next one starts clean.
  ws.copies.push_back({});
  ws.sends.push_back({});
  ws.device_scratch[1] = {3, 1};
  ws.Prepare(4, 2, 8);
  EXPECT_TRUE(ws.copies.empty());
  EXPECT_TRUE(ws.sends.empty());
  EXPECT_EQ(ws.device_scratch[1].send_head, 0u);
  EXPECT_EQ(ws.device_scratch[1].copy, 0u);
  // More devices: the per-device state regrows.
  ws.Prepare(4, 3, 18);
  EXPECT_EQ(ws.heaps.size(), 3u);
  EXPECT_EQ(ws.device_scratch.size(), 3u);
  EXPECT_EQ(ws.slot_end.size(), 3u);
  EXPECT_EQ(ws.link_free.size(), 18u);
  EXPECT_EQ(ws.picks.size(), 4u);
  // An op-count change regrows the per-op arrays.
  ws.Prepare(6, 2, 8);
  EXPECT_EQ(ws.ops.size(), 6u);
  EXPECT_EQ(ws.first_copy.size(), 6u);
  EXPECT_EQ(ws.picks.size(), 6u);
  EXPECT_EQ(ws.heaps.size(), 2u);
}

TEST(ClusterSpec, ValidateRejectsDegenerateSpecs) {
  EXPECT_EQ(ClusterSpec().Validate().code(), support::ErrorCode::kSyntax);

  ClusterOptions zero_gflops;
  zero_gflops.num_gpus = 2;
  zero_gflops.gpu_gflops = 0.0;
  const auto status = MakeDefaultCluster(zero_gflops).Validate();
  EXPECT_EQ(status.code(), support::ErrorCode::kNumericOverflow);
  EXPECT_NE(status.ToString().find("gflops"), std::string::npos);

  ClusterOptions nan_pcie;
  nan_pcie.num_gpus = 1;
  nan_pcie.pcie_gbps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MakeDefaultCluster(nan_pcie).Validate().code(),
            support::ErrorCode::kNumericOverflow);

  ClusterOptions neg_latency;
  neg_latency.num_gpus = 1;
  neg_latency.pcie_latency_us = -1.0;
  EXPECT_EQ(MakeDefaultCluster(neg_latency).Validate().code(),
            support::ErrorCode::kNumericOverflow);

  EXPECT_TRUE(TwoGpuCluster().Validate().ok());
}

TEST(ClusterSpec, SimulatorRefusesInvalidCluster) {
  ClusterOptions opts;
  opts.num_gpus = 1;
  opts.gpu_gflops = -5.0;
  const auto bad = MakeDefaultCluster(opts);
  OpGraph g;
  OpDef op;
  op.name = "op";
  op.type = OpType::kMatMul;
  op.flops = 1e6;
  op.output_shape = TensorShape{16};
  g.AddOp(op);
  EXPECT_THROW(ExecutionSimulator(g, bad), std::logic_error);
}

TEST(Measurement, ProtocolCostAccounting) {
  OpGraph g = models::BuildChain(4, 1 << 10, 1e9);
  const auto cluster = TwoGpuCluster();
  MeasurementOptions options;
  options.noise_stddev = 0.0;
  MeasurementSession session(g, cluster, options);
  const auto result =
      session.Evaluate(Placement::AllOnDevice(g, cluster, 1));
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.per_step_seconds, result.true_per_step_seconds);
  // Cost = session overhead + param transfer + 15 steps.
  EXPECT_NEAR(result.measurement_cost_seconds,
              options.session_overhead_seconds +
                  15 * result.true_per_step_seconds,
              1e-6);
}

TEST(Measurement, NoiseAveragesOverMeasuredSteps) {
  OpGraph g = models::BuildChain(4, 1 << 10, 1e9);
  const auto cluster = TwoGpuCluster();
  MeasurementOptions options;
  options.noise_stddev = 0.05;
  MeasurementSession session(g, cluster, options);
  support::Rng rng(3);
  const auto placement = Placement::AllOnDevice(g, cluster, 1);
  const auto noisy = session.Evaluate(placement, &rng);
  const auto clean = session.Evaluate(placement, nullptr);
  EXPECT_NE(noisy.per_step_seconds, clean.per_step_seconds);
  // 10 averaged steps with 5% noise: within ~5 sigma of truth.
  EXPECT_NEAR(noisy.per_step_seconds, clean.per_step_seconds,
              clean.per_step_seconds * 0.1);
}

TEST(Measurement, InvalidStillCostsSessionSetup) {
  OpGraph g;
  OpDef big;
  big.name = "big";
  big.type = OpType::kVariable;
  big.output_shape = TensorShape{1};
  big.param_bytes = 64LL << 30;
  g.AddOp(big);
  const auto cluster = TwoGpuCluster();
  MeasurementSession session(g, cluster);
  const auto result =
      session.Evaluate(Placement::AllOnDevice(g, cluster, 1));
  EXPECT_FALSE(result.valid);
  EXPECT_GT(result.measurement_cost_seconds, 0.0);
}

}  // namespace
}  // namespace eagle::sim
