// Cluster-spec ingestion and device-model tests: the malformed-fixture
// corpus (tests/cluster_fixtures/, each case's whole diagnostic pinned), the
// happy-path .ec/.json grammars including channel labels and the default
// tier, ResolveCluster name dispatch, the hierarchical builders, and the
// PR's device-model bugfix regressions (dense channel re-indexing under
// AddDevice interleaving, zero-cost self transfers, unconfigured-link
// validation, MakeScaledCluster status propagation).
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "fixture_corpus.h"
#include "gtest/gtest.h"
#include "sim/cluster_ingest.h"
#include "sim/cost_model.h"
#include "sim/device.h"
#include "support/status.h"

namespace eagle::sim {
namespace {

using support::ErrorCode;
using support::Status;
using support::StatusOr;

std::string ShippedClusterPath(const std::string& name) {
  return std::string(EAGLE_SOURCE_DIR) + "/clusters/" + name;
}

// ---------------------------------------------------------------------------
// The malformed-fixture corpus: every file must come back as exactly the
// diagnostic its MANIFEST entry pins, never as a throw.

TEST(ClusterFixtureCorpus, EveryFixtureFailsWithItsPinnedDiagnostic) {
  testing_fixtures::ExpectPinnedDiagnostics(
      "cluster_fixtures", [](const std::string& path, bool tiny) {
        ClusterIngestOptions opts;
        if (tiny) opts.limits.max_devices = 3;
        return ImportClusterFile(path, opts).status();
      });
}

TEST(ClusterFixtureCorpus, CoversTheClusterTaxonomy) {
  // Every code the cluster parsers can produce except kIo (which needs an
  // unopenable file, covered below) must appear in the corpus. kUnknownOp
  // is graph-only: clusters have no op-type catalogue.
  std::map<ErrorCode, int> seen;
  for (const auto& c : testing_fixtures::ReadManifest("cluster_fixtures")) {
    seen[c.code]++;
  }
  for (ErrorCode code :
       {ErrorCode::kSyntax, ErrorCode::kDuplicateOp, ErrorCode::kDuplicateEdge,
        ErrorCode::kDanglingRef, ErrorCode::kCycle,
        ErrorCode::kNumericOverflow, ErrorCode::kResourceLimit}) {
    EXPECT_GT(seen[code], 0)
        << "no fixture for " << support::ErrorCodeName(code);
  }
}

TEST(ImportClusterFile, MissingFileIsIo) {
  const auto result = ImportClusterFile(
      testing_fixtures::CorpusPath("cluster_fixtures", "does_not_exist.ec"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kIo);
}

// ---------------------------------------------------------------------------
// Happy paths: both grammars, channel labels, the default tier.

constexpr char kTextSpec[] = R"(# two GPUs behind one root, an IB default
device host cpu gflops=80 mem_bw=60 overhead=25 mem=1073741824
device fast gpu gflops=2500 mem_bw=550 overhead=50 mem=536870912
device slow gpu gflops=900 mem=268435456
default_link bw=9 lat=130
link host fast bw=11 lat=50 chan=root bidir
link host slow bw=11 lat=50 chan=root bidir
link fast slow bw=44 lat=6 bidir
)";

TEST(ParseTextCluster, ParsesDevicesLinksChannelsAndDefaults) {
  const auto parsed = ParseTextCluster(std::string(kTextSpec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ClusterSpec& c = parsed.value();
  ASSERT_EQ(c.num_devices(), 3);
  EXPECT_EQ(c.device(0).name, "host");
  EXPECT_EQ(c.device(0).kind, DeviceKind::kCPU);
  EXPECT_DOUBLE_EQ(c.device(1).gflops, 2500.0);
  EXPECT_EQ(c.device(1).memory_bytes, 536870912);
  // Unspecified attrs keep the DeviceSpec defaults.
  EXPECT_DOUBLE_EQ(c.device(2).mem_bw_gbps, 500.0);
  EXPECT_EQ(c.FirstCpu(), 0);
  EXPECT_EQ(c.Gpus().size(), 2u);

  // Explicit links carry their own specs; both directions of a bidir
  // line share the channel label.
  EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidth_gbps, 11.0);
  EXPECT_DOUBLE_EQ(c.link(1, 2).bandwidth_gbps, 44.0);
  EXPECT_EQ(c.link_channel(0, 1), c.link_channel(1, 0));
  EXPECT_EQ(c.link_channel(0, 1), c.link_channel(0, 2));
  EXPECT_NE(c.link_channel(1, 2), c.link_channel(0, 1));
  EXPECT_NE(c.link_channel(1, 2), c.link_channel(2, 1));

  // Every pair is covered explicitly here, but the declared default tier
  // still participates in validation.
  EXPECT_TRUE(c.has_default_link());
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ParseTextCluster, DefaultTierFillsOmittedPairs) {
  const char* spec =
      "device a gpu\n"
      "device b gpu\n"
      "default_link bw=9 lat=130\n";
  const auto parsed = ParseTextCluster(std::string(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ClusterSpec& c = parsed.value();
  EXPECT_FALSE(c.link_configured(0, 1));
  EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidth_gbps, 9.0);
  EXPECT_DOUBLE_EQ(c.link(1, 0).latency_us, 130.0);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ClusterFromJson, ParsesTheObjectForm) {
  const auto parsed = ClusterFromJson(testing_fixtures::kClusterObjectSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ClusterSpec& c = parsed.value();
  ASSERT_EQ(c.num_devices(), 3);
  EXPECT_EQ(c.device(0).kind, DeviceKind::kCPU);
  EXPECT_DOUBLE_EQ(c.device(2).gflops, 900.0);
  EXPECT_EQ(c.link_channel(0, 1), c.link_channel(2, 0));
  EXPECT_DOUBLE_EQ(c.link(1, 2).bandwidth_gbps, 44.0);
  // g1 -> g0 is omitted: served by the default tier.
  EXPECT_FALSE(c.link_configured(2, 1));
  EXPECT_DOUBLE_EQ(c.link(2, 1).bandwidth_gbps, 9.0);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ResolveCluster, NamesAndFilesDispatch) {
  ASSERT_TRUE(ResolveCluster("").ok());
  EXPECT_EQ(ResolveCluster("").value().num_devices(), 5);
  ASSERT_TRUE(ResolveCluster("default").ok());
  ASSERT_TRUE(ResolveCluster("2node8").ok());
  EXPECT_EQ(ResolveCluster("2node8").value().num_devices(), 10);
  ASSERT_TRUE(ResolveCluster("mixed").ok());
  EXPECT_EQ(ResolveCluster("mixed").value().num_devices(), 5);
  const auto missing = ResolveCluster("no_such_cluster.ec");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kIo);
}

TEST(ShippedClusters, TwoNodeSpecLoadsAndMatchesTheBuilderShape) {
  const auto parsed = ImportClusterFile(ShippedClusterPath("2node8.ec"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ClusterSpec& c = parsed.value();
  const ClusterSpec built = MakeTwoNodeNvlinkIbCluster();
  ASSERT_EQ(c.num_devices(), built.num_devices());
  for (DeviceId i = 0; i < c.num_devices(); ++i) {
    EXPECT_EQ(c.device(i).name, built.device(i).name);
    EXPECT_EQ(c.device(i).kind, built.device(i).kind);
    EXPECT_DOUBLE_EQ(c.device(i).gflops, built.device(i).gflops);
    EXPECT_EQ(c.device(i).memory_bytes, built.device(i).memory_bytes);
  }
  for (DeviceId s = 0; s < c.num_devices(); ++s) {
    for (DeviceId d = 0; d < c.num_devices(); ++d) {
      if (s == d) continue;
      EXPECT_DOUBLE_EQ(c.link(s, d).bandwidth_gbps,
                       built.link(s, d).bandwidth_gbps)
          << s << "->" << d;
      EXPECT_DOUBLE_EQ(c.link(s, d).latency_us, built.link(s, d).latency_us)
          << s << "->" << d;
    }
  }
  // Channel structure: both nodes' egress NICs are shared channels, and
  // the file's labels induce the same sharing the builder does.
  const DeviceId node0_gpu = 1, node1_gpu = 6, node1_cpu = 5;
  EXPECT_EQ(c.link_channel(node0_gpu, node1_gpu),
            c.link_channel(0, node1_cpu));  // both leave node 0
  EXPECT_NE(c.link_channel(node0_gpu, node1_gpu),
            c.link_channel(node1_gpu, node0_gpu));  // opposite NICs
  EXPECT_EQ(c.link_channel(0, 1), c.link_channel(0, 2));  // shared root
  EXPECT_NE(c.link_channel(1, 2), c.link_channel(1, 3));  // NVLink p2p
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ShippedClusters, MixedSpecLoadsAndIsHeterogeneous) {
  const auto parsed = ImportClusterFile(ShippedClusterPath("mixed.ec"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ClusterSpec& c = parsed.value();
  const ClusterSpec built = MakeMixedSpeedCluster();
  ASSERT_EQ(c.num_devices(), built.num_devices());
  for (DeviceId i = 0; i < c.num_devices(); ++i) {
    EXPECT_DOUBLE_EQ(c.device(i).gflops, built.device(i).gflops) << i;
    EXPECT_EQ(c.device(i).memory_bytes, built.device(i).memory_bytes) << i;
  }
  EXPECT_GT(c.device(1).gflops, c.device(3).gflops);
  EXPECT_LT(c.device(1).memory_bytes, c.device(3).memory_bytes);
  EXPECT_TRUE(c.Validate().ok());
}

// ---------------------------------------------------------------------------
// Hierarchical builders.

TEST(MakeHierarchicalCluster, TiersChannelsAndHeterogeneity) {
  HierarchicalClusterOptions options;
  options.num_nodes = 2;
  options.gpus_per_node = 4;
  options.island_size = 2;  // two NVLink islands per node
  options.per_gpu_gflops = {2500.0, 900.0};
  const ClusterSpec c = MakeHierarchicalCluster(options);
  ASSERT_EQ(c.num_devices(), 10);
  EXPECT_TRUE(c.Validate().ok());

  // Node-major layout: [cpu, g0..g3] per node.
  EXPECT_EQ(c.device(0).kind, DeviceKind::kCPU);
  EXPECT_EQ(c.device(5).kind, DeviceKind::kCPU);
  // Heterogeneity vector cycles within each node.
  EXPECT_DOUBLE_EQ(c.device(1).gflops, 2500.0);
  EXPECT_DOUBLE_EQ(c.device(2).gflops, 900.0);
  EXPECT_DOUBLE_EQ(c.device(3).gflops, 2500.0);
  EXPECT_DOUBLE_EQ(c.device(6).gflops, 2500.0);

  // Tier bandwidths: NVLink within an island > PCIe within a node > IB
  // across nodes.
  const double nv = c.link(1, 2).bandwidth_gbps;    // same island
  const double pcie = c.link(1, 3).bandwidth_gbps;  // cross island
  const double ib = c.link(1, 6).bandwidth_gbps;    // cross node
  EXPECT_GT(nv, pcie);
  EXPECT_GT(pcie, ib);
  EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidth_gbps, pcie);  // host link

  // Channels: all of node 0's PCIe traffic shares one channel, all of its
  // IB egress another; NVLink lanes stay point-to-point.
  EXPECT_EQ(c.link_channel(0, 1), c.link_channel(1, 3));
  EXPECT_EQ(c.link_channel(1, 6), c.link_channel(0, 5));
  EXPECT_NE(c.link_channel(1, 6), c.link_channel(6, 1));
  EXPECT_NE(c.link_channel(0, 1), c.link_channel(1, 6));
  EXPECT_NE(c.link_channel(1, 2), c.link_channel(2, 1));
  // 4 custom channels: two roots, two NICs. Dense, so the channel space
  // is exactly customs + per-pair defaults.
  EXPECT_EQ(c.num_custom_channels(), 4);
  EXPECT_EQ(c.num_link_channels(), 4 + 10 * 10);
}

TEST(MakeHierarchicalCluster, SingleNodeHasNoIbTier) {
  HierarchicalClusterOptions options;
  options.num_nodes = 1;
  options.gpus_per_node = 2;
  options.island_size = 2;
  const ClusterSpec c = MakeHierarchicalCluster(options);
  ASSERT_EQ(c.num_devices(), 3);
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_DOUBLE_EQ(c.link(1, 2).bandwidth_gbps, options.nvlink_gbps);
  EXPECT_EQ(c.num_custom_channels(), 1);  // just the PCIe root
}

// ---------------------------------------------------------------------------
// Satellite regressions: the device-model bugfixes.

TEST(ClusterSpec, ChannelIndicesStayDenseAcrossAddDeviceInterleaving) {
  // The old scheme stored raw labels and reserved [0, n*n) for them; a
  // label chosen when the cluster was small could alias the default
  // range (or index past num_link_channels()) after AddDevice grew n.
  ClusterSpec c;
  const DeviceId a = c.AddDevice({"a", DeviceKind::kGPU, 100, 100, 1, 1024});
  const DeviceId b = c.AddDevice({"b", DeviceKind::kGPU, 100, 100, 1, 1024});
  c.SetLink(a, b, {10, 5});
  c.SetLink(b, a, {10, 5});
  c.SetLinkChannel(a, b, 7);  // arbitrary sparse labels...
  c.SetLinkChannel(b, a, 1000000);  // ...including ones >= n*n
  EXPECT_EQ(c.num_custom_channels(), 2);
  const int ab = c.link_channel(a, b);
  const int ba = c.link_channel(b, a);
  EXPECT_NE(ab, ba);

  // Growing the cluster re-lays-out the row-major matrices but must not
  // change which links share channels, and every channel index must stay
  // inside [0, num_link_channels()).
  const DeviceId d = c.AddDevice({"d", DeviceKind::kGPU, 100, 100, 1, 1024});
  c.SetLink(a, d, {10, 5});
  c.SetLink(d, a, {10, 5});
  c.SetLink(b, d, {10, 5});
  c.SetLink(d, b, {10, 5});
  c.SetLinkChannel(a, d, 7);        // same label as a->b: shares a channel
  c.SetLinkChannel(d, a, 1000000);  // same label as b->a
  EXPECT_EQ(c.num_custom_channels(), 2);
  EXPECT_EQ(c.link_channel(a, b), c.link_channel(a, d));
  EXPECT_EQ(c.link_channel(b, a), c.link_channel(d, a));
  EXPECT_NE(c.link_channel(a, b), c.link_channel(b, a));
  std::map<int, int> uses;
  for (DeviceId s = 0; s < c.num_devices(); ++s) {
    for (DeviceId t = 0; t < c.num_devices(); ++t) {
      if (s == t) continue;
      const int ch = c.link_channel(s, t);
      EXPECT_GE(ch, 0);
      EXPECT_LT(ch, c.num_link_channels());
      uses[ch]++;
    }
  }
  // No stale aliasing: unlabelled links never collide with each other or
  // with the labelled channels.
  EXPECT_EQ(uses[c.link_channel(b, d)], 1);
  EXPECT_EQ(uses[c.link_channel(d, b)], 1);
  EXPECT_EQ(uses[c.link_channel(a, b)], 2);
  EXPECT_EQ(uses[c.link_channel(b, a)], 2);
}

TEST(ClusterSpec, RelabelledLinkReusesTheDenseSlot) {
  ClusterSpec c;
  const DeviceId a = c.AddDevice({"a", DeviceKind::kGPU, 100, 100, 1, 1024});
  const DeviceId b = c.AddDevice({"b", DeviceKind::kGPU, 100, 100, 1, 1024});
  c.SetLinkChannel(a, b, 5);
  c.SetLinkChannel(b, a, 5);
  EXPECT_EQ(c.num_custom_channels(), 1);
  EXPECT_EQ(c.link_channel(a, b), c.link_channel(b, a));
}

TEST(CostModel, SelfTransfersAreFree) {
  const ClusterSpec cluster = MakeDefaultCluster();
  const CostModel cost(cluster);
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    EXPECT_EQ(cost.TransferSeconds(d, d, 0), 0.0);
    EXPECT_EQ(cost.TransferSeconds(d, d, 1LL << 30), 0.0);
  }
  // And a real transfer is not free, so the zero is the src==dst special
  // case rather than a degenerate model.
  EXPECT_GT(cost.TransferSeconds(0, 1, 1LL << 20), 0.0);
}

TEST(ClusterSpec, UnconfiguredLinkIsAValidateError) {
  ClusterSpec c;
  const DeviceId a = c.AddDevice({"a", DeviceKind::kGPU, 100, 100, 1, 1024});
  const DeviceId b = c.AddDevice({"b", DeviceKind::kGPU, 100, 100, 1, 1024});
  c.SetLink(a, b, {10, 5});
  // b -> a never configured: the old silent 12 GB/s fallback is gone.
  const Status status = c.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kSyntax);
  EXPECT_NE(status.message().find("never configured"), std::string::npos);
  // Declaring a default tier makes the same cluster valid, with the tier
  // serving the unconfigured direction only.
  c.SetDefaultLink({9, 130});
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_DOUBLE_EQ(c.link(a, b).bandwidth_gbps, 10.0);
  EXPECT_DOUBLE_EQ(c.link(b, a).bandwidth_gbps, 9.0);
  // A degenerate default tier is itself a validation error.
  c.SetDefaultLink({0.0, 130});
  EXPECT_EQ(c.Validate().code(), ErrorCode::kNumericOverflow);
}

TEST(MakeScaledCluster, PropagatesStatusInsteadOfAborting) {
  const auto half = MakeScaledCluster(0.5);
  ASSERT_TRUE(half.ok()) << half.status().ToString();
  EXPECT_EQ(half.value().device(1).memory_bytes,
            MakeDefaultCluster().device(1).memory_bytes / 2);
  EXPECT_EQ(MakeScaledCluster(0.0).status().code(),
            ErrorCode::kNumericOverflow);
  EXPECT_EQ(MakeScaledCluster(-1.0).status().code(),
            ErrorCode::kNumericOverflow);
  EXPECT_EQ(MakeScaledCluster(std::numeric_limits<double>::quiet_NaN())
                .status()
                .code(),
            ErrorCode::kNumericOverflow);
  EXPECT_EQ(MakeScaledCluster(std::numeric_limits<double>::infinity())
                .status()
                .code(),
            ErrorCode::kNumericOverflow);
  // A valid scale over degenerate options still fails closed, through the
  // same Validate() the simulator would apply.
  ClusterOptions bad;
  bad.gpu_gflops = -1.0;
  EXPECT_EQ(MakeScaledCluster(0.5, bad).status().code(),
            ErrorCode::kNumericOverflow);
}

}  // namespace
}  // namespace eagle::sim
