#include <gtest/gtest.h>

#include <sstream>

#include "graph/features.h"
#include "graph/graph_io.h"
#include "graph/grouped_graph.h"
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

TEST(GroupedGraph, AggregatesAndTraffic) {
  OpGraph g = Diamond();
  // a,b in group 0; c,d in group 1.
  GroupedGraph grouped(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(grouped.group(0).num_ops, 2);
  EXPECT_EQ(grouped.group(1).num_ops, 2);
  EXPECT_EQ(grouped.group(1).param_bytes, 64);
  // Cross edges: a->c (64 bytes) and b->d (64 bytes).
  EXPECT_EQ(grouped.TrafficBetween(0, 1), 128);
  EXPECT_EQ(grouped.TrafficBetween(1, 0), 0);
  EXPECT_EQ(grouped.CutBytes(), 128);
}

TEST(GroupedGraph, InvalidGroupingRejected) {
  OpGraph g = Diamond();
  EXPECT_THROW(GroupedGraph(g, {0, 0, 1}, 2), std::logic_error);
  EXPECT_THROW(GroupedGraph(g, {0, 0, 1, 5}, 2), std::logic_error);
}

TEST(GroupedGraph, EmptyGroupsAllowed) {
  OpGraph g = Diamond();
  GroupedGraph grouped(g, {0, 0, 0, 0}, 3);
  EXPECT_EQ(grouped.group(1).num_ops, 0);
  EXPECT_EQ(grouped.CutBytes(), 0);
}

TEST(Features, OpFeatureDims) {
  OpGraph g = Diamond();
  const auto raw = BuildOpFeatures(g, FeatureMode::kRaw);
  EXPECT_EQ(static_cast<int>(raw.size()), 4 * OpFeatureDim());
  // One-hot type set for op 0 (Placeholder).
  EXPECT_FLOAT_EQ(raw[static_cast<std::size_t>(
                      static_cast<int>(OpType::kPlaceholder))],
                  1.0f);
}

TEST(Features, ReconstructedIsBounded) {
  OpGraph g = Diamond();
  for (auto v : BuildOpFeatures(g, FeatureMode::kReconstructed)) {
    EXPECT_LE(std::abs(v), 10.0f);
  }
}

TEST(Features, PositionalDimsDistinguishIdenticalOps) {
  // Two MatMuls with identical type/shape must still differ in features
  // via topological rank/depth — the property learned groupers need.
  OpGraph g = Diamond();
  const auto f = BuildOpFeatures(g, FeatureMode::kReconstructed);
  const int dim = OpFeatureDim();
  const float* op_a = f.data();                    // source
  const float* op_d = f.data() + 3 * dim;          // sink
  // rank(a)=0, rank(d)=1; depth(a)=0, depth(d)=max.
  EXPECT_FLOAT_EQ(op_a[kNumOpTypes + 6], 0.0f);
  EXPECT_FLOAT_EQ(op_d[kNumOpTypes + 6], 1.0f);
  EXPECT_FLOAT_EQ(op_a[kNumOpTypes + 7], 0.0f);
  EXPECT_FLOAT_EQ(op_d[kNumOpTypes + 7], 1.0f);
  // b and c share type/shape but differ from d positionally.
  const float* op_b = f.data() + 1 * dim;
  EXPECT_NE(op_b[kNumOpTypes + 6], op_d[kNumOpTypes + 6]);
}

TEST(Features, GroupEmbeddingAdjacencyNormalized) {
  OpGraph g = Diamond();
  GroupedGraph grouped(g, {0, 0, 1, 1}, 2);
  const auto emb =
      BuildGroupEmbeddings(grouped, FeatureMode::kReconstructed, true);
  const int dim = GroupEmbeddingDim(2, true);
  // Adjacency share row sums to 1 for groups with traffic.
  const float* adj0 = emb.data() + kNumOpTypes + 5;
  EXPECT_NEAR(adj0[0] + adj0[1], 1.0f, 1e-5f);
  (void)dim;
}

TEST(Features, NormalizedAdjacencySymmetricRows) {
  OpGraph g = Diamond();
  GroupedGraph grouped(g, {0, 0, 1, 1}, 2);
  const auto adj = BuildNormalizedGroupAdjacency(grouped);
  // Â is symmetric for symmetric connectivity.
  EXPECT_FLOAT_EQ(adj[1], adj[2]);
  EXPECT_GT(adj[0], 0.0f);  // self loops present
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
