#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "models/fuzz_corpus.h"
#include "models/synthetic.h"
#include "models/zoo.h"
#include "partition/coarsen.h"
#include "partition/fluid.h"
#include "partition/fm_refine.h"
#include "partition/metis_like.h"
#include "partition/partition.h"
#include "tests/partition_oracle.h"

namespace eagle::partition {
namespace {

TEST(WeightedGraph, MergesParallelEdges) {
  graph::OpGraph g;
  for (int i = 0; i < 2; ++i) {
    graph::OpDef op;
    op.name = "n" + std::to_string(i);
    op.output_shape = graph::TensorShape{4};
    g.AddOp(op);
  }
  g.AddEdge(0, 1, 100);
  g.AddEdge(0, 1, 50);
  const auto wg = BuildWeightedGraph(g);
  EXPECT_EQ(wg.num_vertices(), 2);
  // One undirected neighbor each, weight 150.
  EXPECT_EQ(wg.xadj[1] - wg.xadj[0], 1);
  EXPECT_EQ(wg.adjwgt[0], 150);
  EXPECT_EQ(wg.total_vertex_weight(), 2);
}

TEST(Metrics, CutAndBalance) {
  graph::OpGraph g = models::BuildChain(3);  // 4 ops in a path
  const auto wg = BuildWeightedGraph(g);
  Partitioning part{0, 0, 1, 1};
  const auto m = ComputeMetrics(wg, part, 2);
  EXPECT_EQ(m.num_nonempty, 2);
  EXPECT_DOUBLE_EQ(m.balance, 1.0);
  EXPECT_EQ(m.cut_weight, CutWeight(wg, part));
  EXPECT_GT(m.cut_weight, 0);
}

TEST(Metrics, InvalidPartitionRejected) {
  graph::OpGraph g = models::BuildChain(3);
  const auto wg = BuildWeightedGraph(g);
  EXPECT_THROW(ComputeMetrics(wg, {0, 0, 1}, 2), std::logic_error);
  EXPECT_THROW(ComputeMetrics(wg, {0, 0, 1, 9}, 2), std::logic_error);
}

TEST(Coarsen, ConservesVertexWeight) {
  support::Rng rng(1);
  models::RandomDagConfig config;
  config.layers = 10;
  config.width = 10;
  graph::OpGraph g = models::BuildRandomDag(config, rng);
  const auto wg = BuildWeightedGraph(g);
  const auto level = CoarsenOnce(wg, rng);
  EXPECT_LT(level.graph.num_vertices(), wg.num_vertices());
  EXPECT_EQ(level.graph.total_vertex_weight(), wg.total_vertex_weight());
  // Mapping covers all fine vertices.
  for (auto c : level.fine_to_coarse) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, level.graph.num_vertices());
  }
}

TEST(Coarsen, HierarchyReachesTarget) {
  support::Rng rng(2);
  models::RandomDagConfig config;
  config.layers = 20;
  config.width = 10;
  graph::OpGraph g = models::BuildRandomDag(config, rng);
  const auto wg = BuildWeightedGraph(g);
  const auto levels = BuildHierarchy(wg, 30, rng);
  ASSERT_FALSE(levels.empty());
  EXPECT_LE(levels.back().graph.num_vertices(), wg.num_vertices() / 2);
}

TEST(FmRefine, NeverIncreasesCut) {
  support::Rng rng(3);
  models::RandomDagConfig config;
  config.layers = 12;
  config.width = 8;
  graph::OpGraph g = models::BuildRandomDag(config, rng);
  const auto wg = BuildWeightedGraph(g);
  Partitioning part(static_cast<std::size_t>(wg.num_vertices()));
  for (auto& p : part) p = static_cast<std::int32_t>(rng.NextBelow(4));
  const auto before = CutWeight(wg, part);
  RefineOptions options;
  options.num_parts = 4;
  const auto gain = RefineKWay(wg, part, options, rng);
  const auto after = CutWeight(wg, part);
  EXPECT_EQ(before - after, gain);
  EXPECT_LE(after, before);
}

TEST(FmRefine, RespectsBalanceTolerance) {
  support::Rng rng(4);
  models::RandomDagConfig config;
  config.layers = 12;
  config.width = 8;
  graph::OpGraph g = models::BuildRandomDag(config, rng);
  const auto wg = BuildWeightedGraph(g);
  Partitioning part(static_cast<std::size_t>(wg.num_vertices()));
  for (std::size_t i = 0; i < part.size(); ++i) {
    part[i] = static_cast<std::int32_t>(i % 4);
  }
  RefineOptions options;
  options.num_parts = 4;
  options.balance_tolerance = 1.1;
  RefineKWay(wg, part, options, rng);
  const auto m = ComputeMetrics(wg, part, 4);
  EXPECT_LE(m.balance, 1.1 + 0.1);  // +1 vertex granularity slack
}

TEST(MetisLike, ChainsGroupedByLocality) {
  // Parallel chains have an obvious min-cut: one part per chain. The
  // partitioner should get close: cut far below a random assignment.
  graph::OpGraph g = models::BuildParallelChains(4, 16);
  const auto wg = BuildWeightedGraph(g);
  MetisOptions options;
  options.num_parts = 4;
  const auto part = MetisPartitionWeighted(wg, options);
  const auto metis_cut = CutWeight(wg, part);
  support::Rng rng(5);
  std::int64_t random_cut = 0;
  Partitioning random_part(part.size());
  for (auto& p : random_part) p = static_cast<std::int32_t>(rng.NextBelow(4));
  random_cut = CutWeight(wg, random_part);
  EXPECT_LT(metis_cut, random_cut / 3);
}

TEST(MetisLike, ValidAndDeterministic) {
  support::Rng dag_rng(42);
  models::RandomDagConfig dag;
  dag.layers = 15;
  dag.width = 8;
  graph::OpGraph g = models::BuildRandomDag(dag, dag_rng);
  const auto wg = BuildWeightedGraph(g);
  MetisOptions options;
  options.num_parts = 16;
  options.seed = 9;
  const auto a = MetisPartitionWeighted(wg, options);
  const auto b = MetisPartitionWeighted(wg, options);
  EXPECT_EQ(a, b);
  ValidatePartitioning(wg, a, 16);
}

TEST(MetisLike, MorePartsThanVertices) {
  graph::OpGraph g = models::BuildChain(3);
  MetisOptions options;
  options.num_parts = 64;
  const auto part = MetisPartition(g, options);
  ValidatePartitioning(BuildWeightedGraph(g), part, 64);
}

TEST(Fluid, ValidPartitioning) {
  graph::OpGraph g = models::BuildParallelChains(4, 16);
  FluidOptions options;
  options.num_communities = 4;
  const auto part = FluidCommunities(g, options);
  ValidatePartitioning(BuildWeightedGraph(g), part, 4);
}

TEST(Fluid, DeterministicBySeed) {
  graph::OpGraph g = models::BuildParallelChains(3, 10);
  FluidOptions options;
  options.num_communities = 3;
  options.seed = 17;
  EXPECT_EQ(FluidCommunities(g, options), FluidCommunities(g, options));
}

TEST(Fluid, FindsCommunitiesOnChains) {
  graph::OpGraph g = models::BuildParallelChains(4, 16);
  const auto wg = BuildWeightedGraph(g);
  FluidOptions options;
  options.num_communities = 4;
  const auto part = FluidCommunitiesWeighted(wg, options);
  // Much better than random, though typically behind METIS.
  support::Rng rng(6);
  Partitioning random_part(part.size());
  for (auto& p : random_part) p = static_cast<std::int32_t>(rng.NextBelow(4));
  EXPECT_LT(CutWeight(wg, part), CutWeight(wg, random_part));
}

// Property sweep: both partitioners produce valid, better-than-random cuts
// across random DAG shapes and seeds.
struct PartitionPropertyCase {
  int layers;
  int width;
  int parts;
  std::uint64_t seed;
};

class PartitionProperty
    : public ::testing::TestWithParam<PartitionPropertyCase> {};

TEST_P(PartitionProperty, BetterThanRandomAndValid) {
  const auto param = GetParam();
  support::Rng rng(param.seed);
  models::RandomDagConfig config;
  config.layers = param.layers;
  config.width = param.width;
  graph::OpGraph g = models::BuildRandomDag(config, rng);
  const auto wg = BuildWeightedGraph(g);

  MetisOptions metis;
  metis.num_parts = param.parts;
  metis.seed = param.seed;
  const auto metis_part = MetisPartitionWeighted(wg, metis);
  ValidatePartitioning(wg, metis_part, param.parts);

  FluidOptions fluid;
  fluid.num_communities = param.parts;
  fluid.seed = param.seed;
  const auto fluid_part = FluidCommunitiesWeighted(wg, fluid);
  ValidatePartitioning(wg, fluid_part, param.parts);

  Partitioning random_part(static_cast<std::size_t>(wg.num_vertices()));
  for (auto& p : random_part) {
    p = static_cast<std::int32_t>(
        rng.NextBelow(static_cast<std::uint64_t>(param.parts)));
  }
  const auto random_cut = CutWeight(wg, random_part);
  EXPECT_LE(CutWeight(wg, metis_part), random_cut);
  EXPECT_LE(CutWeight(wg, fluid_part), random_cut);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProperty,
    ::testing::Values(PartitionPropertyCase{8, 6, 4, 1},
                      PartitionPropertyCase{16, 4, 4, 2},
                      PartitionPropertyCase{12, 10, 8, 3},
                      PartitionPropertyCase{20, 8, 16, 4},
                      PartitionPropertyCase{6, 20, 8, 5},
                      PartitionPropertyCase{30, 5, 4, 6}));

// ---------------------------------------------------------------------------
// The benchmark graphs against the frozen map-based oracle
// (tests/partition_oracle.h).

struct OracleGraph {
  const char* name;
  graph::OpGraph graph;
};

const std::vector<OracleGraph>& OracleGraphs() {
  static const std::vector<OracleGraph>* graphs = [] {
    auto* out = new std::vector<OracleGraph>();
    out->push_back({"Inception-V3",
                    models::BuildBenchmark(models::Benchmark::kInceptionV3)});
    out->push_back({"GNMT", models::BuildBenchmark(models::Benchmark::kGNMT)});
    out->push_back(
        {"BERT", models::BuildBenchmark(models::Benchmark::kBertBase)});
    models::FuzzGraphConfig fuzz;
    fuzz.num_ops = 10500;
    support::Rng rng(11);
    out->push_back({"fuzz", models::BuildFuzzGraph(fuzz, rng)});
    return out;
  }();
  return *graphs;
}

void ExpectSameGraph(const WeightedGraph& got, const WeightedGraph& want,
                     const std::string& where) {
  EXPECT_EQ(got.xadj, want.xadj) << where;
  EXPECT_EQ(got.adjncy, want.adjncy) << where;
  EXPECT_EQ(got.adjwgt, want.adjwgt) << where;
  EXPECT_EQ(got.vwgt, want.vwgt) << where;
}

TEST(PartitionOracle, WeightedGraphAndHierarchyMatchTheMapBasedBuild) {
  // Parallel edges (BuildRandomDag repeats fan-in picks) merge the same way.
  support::Rng dag_rng(3);
  models::RandomDagConfig dag;
  dag.layers = 12;
  dag.width = 10;
  const graph::OpGraph random_dag = models::BuildRandomDag(dag, dag_rng);
  ExpectSameGraph(BuildWeightedGraph(random_dag),
                  oracle::BuildWeightedGraph(random_dag), "random DAG");

  ASSERT_GE(OracleGraphs().back().graph.num_ops(), 20000);
  for (const OracleGraph& g : OracleGraphs()) {
    const WeightedGraph wg = BuildWeightedGraph(g.graph);
    const WeightedGraph want = oracle::BuildWeightedGraph(g.graph);
    ExpectSameGraph(wg, want, g.name);
    for (std::uint64_t seed : {1u, 7u}) {
      // METIS's own hierarchy at k = 4 (coarsen target 512): a larger
      // target stops at a prefix of these levels.
      support::Rng rng(seed);
      support::Rng oracle_rng(seed);
      const auto levels = BuildHierarchy(wg, 512, rng);
      const auto want_levels = oracle::BuildHierarchy(want, 512, oracle_rng);
      ASSERT_EQ(levels.size(), want_levels.size()) << g.name;
      EXPECT_FALSE(levels.empty()) << g.name;
      for (std::size_t i = 0; i < levels.size(); ++i) {
        const std::string where = std::string(g.name) + " seed " +
                                  std::to_string(seed) + " level " +
                                  std::to_string(i);
        ExpectSameGraph(levels[i].graph, want_levels[i].graph, where);
        EXPECT_EQ(levels[i].fine_to_coarse, want_levels[i].fine_to_coarse)
            << where;
      }
      EXPECT_EQ(rng.NextU64(), oracle_rng.NextU64()) << g.name;
    }
  }
}

// FNV-1a over the part ids.
std::uint64_t PartitionHash(const Partitioning& part) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::int32_t p : part) {
    h ^= static_cast<std::uint32_t>(p);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(PartitionOracle, MetisPartitionsMatchThePinnedHashes) {
  struct Pin {
    const char* graph;
    int k;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  // Recorded with the map-based coarsening.
  const Pin pins[] = {
      {"Inception-V3", 4, 1, 0x59aef55b3c0779e5ULL},
      {"Inception-V3", 4, 7, 0x617e10d3ca8076edULL},
      {"Inception-V3", 16, 1, 0xb9e17918b2ab61abULL},
      {"Inception-V3", 16, 7, 0xe642c05d9d41d0daULL},
      {"Inception-V3", 24, 1, 0x96ab48d0583f3cd7ULL},
      {"Inception-V3", 24, 7, 0x7a2101482d05d166ULL},
      {"Inception-V3", 48, 1, 0xda7d6a96466e42e8ULL},
      {"Inception-V3", 48, 7, 0x83434bfd3f292abeULL},
      {"Inception-V3", 256, 1, 0xeb753e2a56af4edeULL},
      {"Inception-V3", 256, 7, 0x51dc88fda69d558fULL},
      {"GNMT", 4, 1, 0xa5dcda710d2ee2a1ULL},
      {"GNMT", 4, 7, 0xf8e446ad61de2786ULL},
      {"GNMT", 16, 1, 0x5002e35d414ba899ULL},
      {"GNMT", 16, 7, 0xb7a20ed61d5b42d3ULL},
      {"GNMT", 24, 1, 0x2d95fee1c6e2ac8eULL},
      {"GNMT", 24, 7, 0x98af4a8706fef860ULL},
      {"GNMT", 48, 1, 0x8761f5391039ae23ULL},
      {"GNMT", 48, 7, 0x68128b8e99d4bbb3ULL},
      {"GNMT", 256, 1, 0xa92f189febbb0589ULL},
      {"GNMT", 256, 7, 0x4edc0715f2ca7fdULL},
      {"BERT", 4, 1, 0xa786bb91d40aa21ULL},
      {"BERT", 4, 7, 0x4758891dd0b4ce69ULL},
      {"BERT", 16, 1, 0xccd5e09530f0c363ULL},
      {"BERT", 16, 7, 0xba7da31270b17286ULL},
      {"BERT", 24, 1, 0x76d5a79835f42d8cULL},
      {"BERT", 24, 7, 0xf245864d6dcc8ad9ULL},
      {"BERT", 48, 1, 0xa222304e04c54fe5ULL},
      {"BERT", 48, 7, 0x25b5e331f91fdf39ULL},
      {"BERT", 256, 1, 0xe5bef2c4e5f75b9cULL},
      {"BERT", 256, 7, 0x7d02ac710c17d821ULL},
      {"fuzz", 4, 1, 0xd44cd3927c4f0ea2ULL},
      {"fuzz", 4, 7, 0x7da20e0d346d6af2ULL},
      {"fuzz", 16, 1, 0x8d1eb4654b0e9f26ULL},
      {"fuzz", 16, 7, 0xdf92087c52fe645bULL},
      {"fuzz", 24, 1, 0xc95a1db5f374a9c1ULL},
      {"fuzz", 24, 7, 0xf1bf401a79996999ULL},
      {"fuzz", 48, 1, 0xaef8ecfc6779feebULL},
      {"fuzz", 48, 7, 0x2bd3c718344dcae5ULL},
      {"fuzz", 256, 1, 0x24626c04f607642fULL},
      {"fuzz", 256, 7, 0x2d53d52c4b91c65fULL},
  };
  std::size_t checked = 0;
  for (const OracleGraph& g : OracleGraphs()) {
    for (int k : {4, 16, 24, 48, 256}) {
      for (std::uint64_t seed : {1u, 7u}) {
        MetisOptions options;
        options.num_parts = k;
        options.seed = seed;
        const std::uint64_t hash = PartitionHash(MetisPartition(g.graph, options));
        bool found = false;
        for (const Pin& pin : pins) {
          if (std::string(pin.graph) != g.name || pin.k != k ||
              pin.seed != seed) {
            continue;
          }
          found = true;
          ++checked;
          EXPECT_EQ(hash, pin.hash) << g.name << " k=" << k << " seed=" << seed;
        }
        EXPECT_TRUE(found) << "no pin for " << g.name << " k=" << k
                           << " seed=" << seed << ": 0x" << std::hex << hash;
      }
    }
  }
  EXPECT_EQ(checked, 40u);
}

}  // namespace
}  // namespace eagle::partition
