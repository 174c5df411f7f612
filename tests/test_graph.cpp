#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "core/group_embedding.h"
#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "graph/op_graph.h"
#include "support/status.h"

namespace eagle::graph {
namespace {

OpGraph Diamond() {
  // a -> b, a -> c, b -> d, c -> d
  OpGraph g;
  OpDef a;
  a.name = "a";
  a.type = OpType::kPlaceholder;
  a.output_shape = TensorShape{4, 4};
  g.AddOp(a);
  OpDef b;
  b.name = "b";
  b.type = OpType::kMatMul;
  b.output_shape = TensorShape{4, 4};
  b.flops = 100.0;
  g.AddOp(b);
  OpDef c = b;
  c.name = "c";
  g.AddOp(c);
  OpDef d = b;
  d.name = "d";
  d.param_bytes = 64;
  g.AddOp(d);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  return g;
}

TEST(TensorShape, ElementsAndBytes) {
  TensorShape s{2, 3, 4};
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s.Bytes(), 96);
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_EQ(s.ToString(), "[2,3,4]");
}

TEST(TensorShape, ScalarHasOneElement) {
  TensorShape s;
  EXPECT_EQ(s.NumElements(), 1);
  EXPECT_EQ(s.rank(), 0);
}

TEST(TensorShape, NegativeDimRejected) {
  EXPECT_THROW(TensorShape({-1, 2}), std::logic_error);
}

TEST(OpType, NamesRoundTrip) {
  for (int i = 0; i < kNumOpTypes; ++i) {
    const auto type = static_cast<OpType>(i);
    EXPECT_EQ(OpTypeFromName(OpTypeName(type)), type);
  }
  EXPECT_EQ(OpTypeFromName("NotAType"), OpType::kNumOpTypes);
}

TEST(OpGraph, AddAndLookup) {
  OpGraph g = Diamond();
  EXPECT_EQ(g.num_ops(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.FindOp("c"), 2);
  EXPECT_EQ(g.FindOp("nope"), kInvalidOp);
}

TEST(OpGraph, DuplicateNameRejected) {
  OpGraph g;
  OpDef a;
  a.name = "x";
  g.AddOp(a);
  EXPECT_THROW(g.AddOp(a), std::logic_error);
}

TEST(OpGraph, SelfEdgeRejected) {
  OpGraph g;
  OpDef a;
  a.name = "x";
  g.AddOp(a);
  EXPECT_THROW(g.AddEdge(0, 0), std::logic_error);
}

TEST(OpGraph, DefaultEdgeBytesFromProducer) {
  OpGraph g = Diamond();
  EXPECT_EQ(g.edges()[0].bytes, 4 * 4 * 4);
}

TEST(OpGraph, TopologicalOrderRespectsEdges) {
  OpGraph g = Diamond();
  const auto order = g.TopologicalOrder();
  std::vector<int> position(4);
  for (int i = 0; i < 4; ++i) position[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  for (const auto& e : g.edges()) {
    EXPECT_LT(position[static_cast<std::size_t>(e.src)],
              position[static_cast<std::size_t>(e.dst)]);
  }
}

TEST(OpGraph, CycleDetected) {
  OpGraph g;
  for (int i = 0; i < 2; ++i) {
    OpDef a;
    a.name = "n" + std::to_string(i);
    g.AddOp(a);
  }
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_FALSE(g.IsDag());
  EXPECT_THROW(g.TopologicalOrder(), std::logic_error);
}

TEST(OpGraph, SourcesAndSinks) {
  OpGraph g = Diamond();
  EXPECT_EQ(g.SourceOps(), std::vector<OpId>{0});
  EXPECT_EQ(g.SinkOps(), std::vector<OpId>{3});
}

TEST(OpGraph, Aggregates) {
  OpGraph g = Diamond();
  EXPECT_DOUBLE_EQ(g.TotalFlops(), 300.0);
  EXPECT_EQ(g.TotalParamBytes(), 64);
  EXPECT_EQ(g.CriticalPathLength(), 3);
  const auto stats = g.Summarize();
  EXPECT_EQ(stats.num_ops, 4);
  EXPECT_EQ(stats.critical_path, 3);
}

// The agents' state vectors (core/group_embedding.h), checked on the
// hand-countable diamond.
TEST(StateVectors, AggregatesAndTraffic) {
  OpGraph g = Diamond();
  // a,b in group 0; c,d in group 1. Raw mode keeps the sums readable.
  const auto emb = core::MakeGroupEmbeddings(g, {0, 0, 1, 1}, 2,
                                             core::FeatureMode::kRaw, true);
  EXPECT_EQ(emb.at(0, kNumOpTypes), 2.0f);  // ops per group
  EXPECT_EQ(emb.at(1, kNumOpTypes), 2.0f);
  EXPECT_EQ(emb.at(1, kNumOpTypes + 3), static_cast<float>(64 / 1e8));
  // Cross edges: a->c (64 bytes) and b->d (64 bytes).
  EXPECT_EQ(emb.at(0, kNumOpTypes + 5 + 1), static_cast<float>(128 / 1e8));
}

TEST(StateVectors, InvalidGroupingRejected) {
  OpGraph g = Diamond();
  for (const Grouping& bad : {Grouping{0, 0, 1}, Grouping{0, 0, 1, 5}}) {
    EXPECT_THROW(core::MakeGroupEmbeddings(g, bad, 2,
                                           core::FeatureMode::kRaw, true),
                 std::logic_error);
    EXPECT_THROW(core::MakeGroupAdjacency(g, bad, 2), std::logic_error);
  }
}

TEST(StateVectors, EmptyGroupsAllowed) {
  OpGraph g = Diamond();
  const auto emb = core::MakeGroupEmbeddings(g, {0, 0, 0, 0}, 3,
                                             core::FeatureMode::kRaw, true);
  EXPECT_EQ(emb.at(1, kNumOpTypes), 0.0f);
  // No edge crosses a group boundary.
  for (int group = 0; group < 3; ++group) {
    for (int h = 0; h < 3; ++h) {
      EXPECT_EQ(emb.at(group, kNumOpTypes + 5 + h), 0.0f);
    }
  }
}

TEST(StateVectors, OpFeatureDims) {
  OpGraph g = Diamond();
  const auto raw = core::MakeOpFeatures(g, core::FeatureMode::kRaw);
  EXPECT_EQ(raw.rows(), 4);
  EXPECT_EQ(raw.cols(), core::OpFeatureDim());
  // One-hot type set for op 0 (Placeholder).
  EXPECT_FLOAT_EQ(raw.at(0, static_cast<int>(OpType::kPlaceholder)), 1.0f);
}

TEST(StateVectors, ReconstructedIsBounded) {
  OpGraph g = Diamond();
  const auto f = core::MakeOpFeatures(g, core::FeatureMode::kReconstructed);
  for (std::int64_t i = 0; i < f.size(); ++i) {
    EXPECT_LE(std::abs(f.data()[i]), 10.0f);
  }
}

TEST(StateVectors, PositionalDimsDistinguishIdenticalOps) {
  // Two MatMuls with identical type/shape must still differ in features
  // via topological rank/depth — the property learned groupers need.
  OpGraph g = Diamond();
  const auto f = core::MakeOpFeatures(g, core::FeatureMode::kReconstructed);
  // rank(a)=0, rank(d)=1; depth(a)=0, depth(d)=max (a is the source, d
  // the sink).
  EXPECT_FLOAT_EQ(f.at(0, kNumOpTypes + 6), 0.0f);
  EXPECT_FLOAT_EQ(f.at(3, kNumOpTypes + 6), 1.0f);
  EXPECT_FLOAT_EQ(f.at(0, kNumOpTypes + 7), 0.0f);
  EXPECT_FLOAT_EQ(f.at(3, kNumOpTypes + 7), 1.0f);
  // b and c share type/shape but differ from d positionally.
  EXPECT_NE(f.at(1, kNumOpTypes + 6), f.at(3, kNumOpTypes + 6));
}

TEST(StateVectors, GroupEmbeddingAdjacencyNormalized) {
  OpGraph g = Diamond();
  const auto emb = core::MakeGroupEmbeddings(
      g, {0, 0, 1, 1}, 2, core::FeatureMode::kReconstructed, true);
  EXPECT_EQ(emb.cols(), core::GroupEmbeddingDim(2, true));
  // Adjacency share row sums to 1 for groups with traffic.
  EXPECT_NEAR(emb.at(0, kNumOpTypes + 5) + emb.at(0, kNumOpTypes + 6), 1.0f,
              1e-5f);
}

TEST(StateVectors, NormalizedAdjacencySymmetricRows) {
  OpGraph g = Diamond();
  const auto adj = core::MakeGroupAdjacency(g, {0, 0, 1, 1}, 2);
  // Â is symmetric for symmetric connectivity.
  EXPECT_FLOAT_EQ(adj.at(0, 1), adj.at(1, 0));
  EXPECT_GT(adj.at(0, 0), 0.0f);  // self loops present
}

TEST(GraphIo, DotContainsNodes) {
  OpGraph g = Diamond();
  const std::string dot = ToDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("MatMul"), std::string::npos);
}

TEST(GraphIo, JsonContainsOpsAndEdges) {
  OpGraph g = Diamond();
  const std::string json = ToJson(g);
  EXPECT_NE(json.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\""), std::string::npos);
}

TEST(GraphIo, TextRoundTrip) {
  OpGraph g = Diamond();
  g.mutable_op(1).cpu_only = true;
  g.mutable_op(2).layer = "mid";
  std::ostringstream out;
  SaveText(g, out);
  const support::StatusOr<OpGraph> parsed = ParseTextGraph(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const OpGraph& loaded = parsed.value();
  ASSERT_EQ(loaded.num_ops(), g.num_ops());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_TRUE(loaded.op(1).cpu_only);
  EXPECT_EQ(loaded.op(2).layer, "mid");
  EXPECT_EQ(loaded.op(3).param_bytes, 64);
  EXPECT_EQ(loaded.edges()[0].bytes, g.edges()[0].bytes);
}

// The .eg importer accepts control bytes in names; ToJson escapes them
// as \u00XX, and FromJson must read them back.
TEST(GraphIo, ControlBytesInNamesRoundTripThroughJson) {
  const std::string name = std::string("a") + '\x01' + "b";
  const support::StatusOr<OpGraph> parsed = ParseTextGraph(
      "op " + name + " MatMul 4x4 flops=100 params=0\n"
      "op c MatMul 4x4 flops=100 params=0\n"
      "edge " + name + " c\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string json = ToJson(parsed.value());
  const support::StatusOr<OpGraph> reread = FromJson(json);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread.value().op(0).name, name);
  EXPECT_EQ(ToJson(reread.value()), json);
}

TEST(GraphIo, LoadsCheckedInFixture) {
  const support::StatusOr<OpGraph> parsed = ImportGraphFile(
      std::string(EAGLE_SOURCE_DIR) + "/examples/fixtures/tiny_transformer.eg");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const OpGraph& g = parsed.value();
  EXPECT_EQ(g.num_ops(), 17);
  EXPECT_EQ(g.num_edges(), 20);
  EXPECT_TRUE(g.IsDag());
  const OpId loss = g.FindOp("loss");
  ASSERT_NE(loss, kInvalidOp);
  EXPECT_EQ(g.op(loss).type, OpType::kCrossEntropy);
  EXPECT_TRUE(g.op(g.FindOp("labels")).cpu_only);
}

TEST(GraphIo, MalformedTextRejected) {
  EXPECT_EQ(ParseTextGraph("op onlyname\n").status().code(),
            support::ErrorCode::kSyntax);
  EXPECT_EQ(ParseTextGraph("edge a b\n").status().code(),
            support::ErrorCode::kDanglingRef);
  EXPECT_EQ(ParseTextGraph("frob x\n").status().code(),
            support::ErrorCode::kSyntax);
}

}  // namespace
}  // namespace eagle::graph
