// Hardened-ingestion tests: the Status taxonomy, the checked numeric
// conversions, the malformed-fixture corpus (tests/graph_fixtures/, each
// case's whole diagnostic pinned), byte-identical round-trips
// through both serialization formats, a deterministic mutation-fuzz
// smoke, a stress-scale end-to-end run and ValidateGraph semantics.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/expert_policies.h"
#include "fixture_corpus.h"
#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "graph/record_reader.h"
#include "graph/validate.h"
#include "gtest/gtest.h"
#include "models/fuzz_corpus.h"
#include "models/zoo.h"
#include "sim/cluster_ingest.h"
#include "sim/device.h"
#include "sim/placement.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "support/status.h"

namespace eagle {
namespace {

using graph::IngestLimits;
using graph::IngestOptions;
using graph::OpDef;
using graph::OpGraph;
using graph::OpType;
using graph::TensorShape;
using support::ErrorCode;
using support::Status;
using support::StatusOr;

OpGraph MakeTinyGraph() {
  OpGraph g;
  OpDef a;
  a.name = "a";
  a.type = OpType::kMatMul;
  a.output_shape = TensorShape{4, 4};
  g.AddOp(std::move(a));
  OpDef b;
  b.name = "b";
  b.type = OpType::kRelu;
  b.output_shape = TensorShape{4, 4};
  g.AddOp(std::move(b));
  g.AddEdge(0, 1);
  return g;
}

// ---------------------------------------------------------------------------
// Status / taxonomy basics.

TEST(Status, DefaultIsOkAndErrorsCarryPosition) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status().code(), ErrorCode::kOk);

  Status s = Status::Error(ErrorCode::kSyntax, "unknown directive 'frob'")
                 .At("graph.eg", 12, 7);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kSyntax);
  EXPECT_EQ(s.file(), "graph.eg");
  EXPECT_EQ(s.line(), 12);
  EXPECT_EQ(s.column(), 7);
  EXPECT_EQ(s.ToString(), "graph.eg:12:7: [syntax] unknown directive 'frob'");
}

TEST(Status, CodeNamesRoundTrip) {
  const ErrorCode codes[] = {
      ErrorCode::kOk,          ErrorCode::kIo,
      ErrorCode::kSyntax,      ErrorCode::kUnknownOp,
      ErrorCode::kDuplicateOp, ErrorCode::kDuplicateEdge,
      ErrorCode::kDanglingRef, ErrorCode::kCycle,
      ErrorCode::kNumericOverflow, ErrorCode::kResourceLimit,
  };
  for (ErrorCode code : codes) {
    ErrorCode parsed = ErrorCode::kOk;
    ASSERT_TRUE(support::ErrorCodeFromName(support::ErrorCodeName(code),
                                           &parsed))
        << support::ErrorCodeName(code);
    EXPECT_EQ(parsed, code);
  }
  ErrorCode ignored;
  EXPECT_FALSE(support::ErrorCodeFromName("frobnicate", &ignored));
}

TEST(Status, StatusOrMovesTheValueOut) {
  StatusOr<std::string> ok(std::string("payload"));
  ASSERT_TRUE(ok.ok());
  const std::string moved = std::move(ok).value();
  EXPECT_EQ(moved, "payload");

  StatusOr<std::string> err(Status::Error(ErrorCode::kIo, "nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kIo);
}

// ---------------------------------------------------------------------------
// Checked numeric conversions.

TEST(ParseNum, Int64AcceptsOnlyCompleteInRangeTokens) {
  std::int64_t v = 0;
  EXPECT_TRUE(graph::ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(graph::ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(graph::ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);

  EXPECT_FALSE(graph::ParseInt64("", &v));
  EXPECT_FALSE(graph::ParseInt64("12abc", &v));   // trailing garbage
  EXPECT_FALSE(graph::ParseInt64(" 12", &v));     // leading whitespace
  EXPECT_FALSE(graph::ParseInt64("1.5", &v));
  EXPECT_FALSE(graph::ParseInt64("9223372036854775808", &v));  // overflow
  EXPECT_FALSE(graph::ParseInt64("99999999999999999999", &v));
}

TEST(ParseNum, DoubleRejectsGarbageAndNonFinite) {
  double v = 0.0;
  EXPECT_TRUE(graph::ParseDouble("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(graph::ParseDouble("1e9", &v));
  EXPECT_DOUBLE_EQ(v, 1e9);
  EXPECT_TRUE(graph::ParseDouble("-3", &v));

  EXPECT_FALSE(graph::ParseDouble("", &v));
  EXPECT_FALSE(graph::ParseDouble("1.5x", &v));
  EXPECT_FALSE(graph::ParseDouble("1e999", &v));  // overflows to inf
  EXPECT_FALSE(graph::ParseDouble("inf", &v));
  EXPECT_FALSE(graph::ParseDouble("nan", &v));
}

TEST(ParseNum, LooksNumericClassifiesFailedConversions) {
  EXPECT_TRUE(graph::LooksNumeric("99999999999999999999"));
  EXPECT_TRUE(graph::LooksNumeric("-5"));
  EXPECT_TRUE(graph::LooksNumeric("1e999"));
  EXPECT_FALSE(graph::LooksNumeric("abc"));
  EXPECT_FALSE(graph::LooksNumeric(""));
}

// ---------------------------------------------------------------------------
// The malformed-fixture corpus: every file must come back as exactly the
// diagnostic its MANIFEST entry pins, never as a throw.

TEST(FixtureCorpus, EveryFixtureFailsWithItsPinnedDiagnostic) {
  testing_fixtures::ExpectPinnedDiagnostics(
      "graph_fixtures", [](const std::string& path, bool tiny) {
        IngestOptions opts;
        if (tiny) {
          opts.limits.max_ops = 4;
          opts.limits.max_edges = 3;
          opts.limits.max_total_bytes = 4096;
        }
        return graph::ImportGraphFile(path, opts).status();
      });
}

TEST(FixtureCorpus, CoversTheWholeTaxonomy) {
  // Every code except kOk and kIo (kIo needs an unopenable file, covered
  // by ImportGraphFile.MissingFileIsIo below) must appear in the corpus.
  std::map<ErrorCode, int> seen;
  for (const auto& c : testing_fixtures::ReadManifest("graph_fixtures")) {
    seen[c.code]++;
  }
  for (ErrorCode code :
       {ErrorCode::kSyntax, ErrorCode::kUnknownOp, ErrorCode::kDuplicateOp,
        ErrorCode::kDuplicateEdge, ErrorCode::kDanglingRef, ErrorCode::kCycle,
        ErrorCode::kNumericOverflow, ErrorCode::kResourceLimit}) {
    EXPECT_GT(seen[code], 0) << "no fixture for "
                             << support::ErrorCodeName(code);
  }
}

// ---------------------------------------------------------------------------
// Round-trips: parse(print(g)) must reprint to the same bytes, for both
// formats, over the zoo benchmarks and a seeded fuzz-corpus sample.

std::string SaveTextString(const OpGraph& g) {
  std::ostringstream os;
  graph::SaveText(g, os);
  return os.str();
}

void ExpectByteIdenticalRoundTrips(const OpGraph& g, const std::string& tag) {
  const std::string text = SaveTextString(g);
  StatusOr<OpGraph> from_text = graph::ParseTextGraph(text);
  ASSERT_TRUE(from_text.ok()) << tag << ": " << from_text.status().ToString();
  EXPECT_EQ(from_text.value().num_ops(), g.num_ops()) << tag;
  EXPECT_EQ(from_text.value().num_edges(), g.num_edges()) << tag;
  EXPECT_EQ(SaveTextString(from_text.value()), text)
      << tag << ": .eg round-trip is not byte-identical";

  const std::string json = graph::ToJson(g);
  StatusOr<OpGraph> from_json = graph::FromJson(json);
  ASSERT_TRUE(from_json.ok()) << tag << ": " << from_json.status().ToString();
  EXPECT_EQ(graph::ToJson(from_json.value()), json)
      << tag << ": JSON round-trip is not byte-identical";
}

TEST(RoundTrip, ZooBenchmarksSurviveBothFormats) {
  for (models::Benchmark benchmark : models::AllBenchmarks()) {
    models::ZooOptions options;
    options.reduced = true;
    ExpectByteIdenticalRoundTrips(models::BuildBenchmark(benchmark, options),
                                  models::BenchmarkName(benchmark));
  }
}

TEST(RoundTrip, FiftySeededFuzzGraphsSurviveBothFormats) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    models::FuzzGraphConfig config;
    config.num_ops = 40;
    config.width = 8;
    support::Rng rng(seed);
    const OpGraph g = models::BuildFuzzGraph(config, rng);
    ExpectByteIdenticalRoundTrips(g, "fuzz seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Mutation-fuzz smoke over every importer — graph .eg and JSON, cluster
// .ec and JSON: a deterministic slice of what scripts/run_ci.sh runs
// under ASan/UBSan. Every mutant must come back as either a parsed value
// or a structured status: the ASSERT_NO_THROW is the no-crash/no-throw
// contract, and no mutant may fall through to the no-throw guard's
// internal-error status.

TEST(MutationFuzz, EveryImporterYieldsStructuredResults) {
  models::FuzzGraphConfig text_config;
  text_config.num_ops = 120;
  text_config.width = 16;
  support::Rng text_rng(7);
  models::FuzzGraphConfig json_config;
  json_config.num_ops = 60;
  json_config.width = 8;
  support::Rng json_rng(11);
  std::ifstream ec_file(std::string(EAGLE_SOURCE_DIR) + "/clusters/2node8.ec");
  std::ostringstream ec_text;
  ec_text << ec_file.rdbuf();

  struct Input {
    const char* name;
    std::string base;
    std::uint64_t seed;
    int iters;
    std::function<Status(const std::string&)> parse;
    // Codes the mutants must keep reaching: the strategies have to drive
    // a broad slice of the taxonomy, not collapse into one failure mode.
    std::vector<const char*> reached;
  };
  const Input inputs[] = {
      {"graph .eg",
       SaveTextString(models::BuildFuzzGraph(text_config, text_rng)), 1234,
       2500,
       [](const std::string& m) { return graph::ParseTextGraph(m).status(); },
       {"ok", "syntax", "duplicate-op", "dangling-ref", "numeric-overflow"}},
      {"graph JSON",
       graph::ToJson(models::BuildFuzzGraph(json_config, json_rng)), 5678,
       1500,
       [](const std::string& m) { return graph::FromJson(m).status(); },
       {"ok", "syntax", "numeric-overflow"}},
      {"cluster .ec", ec_text.str(), 4321, 2000,
       [](const std::string& m) { return sim::ParseTextCluster(m).status(); },
       {"ok", "syntax", "duplicate-op", "duplicate-edge", "dangling-ref",
        "numeric-overflow"}},
      {"cluster JSON", testing_fixtures::kClusterObjectSpec, 8765, 2000,
       [](const std::string& m) { return sim::ClusterFromJson(m).status(); },
       {"ok", "syntax", "dangling-ref", "numeric-overflow"}},
  };
  for (const Input& input : inputs) {
    ASSERT_FALSE(input.base.empty()) << input.name;
    support::Rng rng(input.seed);
    std::map<std::string, int> histogram;
    for (int i = 0; i < input.iters; ++i) {
      std::string mutant = input.base;
      const int depth = 1 + static_cast<int>(rng.NextBelow(3));
      for (int d = 0; d < depth; ++d) {
        mutant = models::MutateSerializedGraph(mutant, rng);
      }
      Status status;
      ASSERT_NO_THROW(status = input.parse(mutant))
          << input.name << " iter " << i;
      if (!status.ok()) {
        EXPECT_EQ(status.file(), "<input>") << input.name;
        EXPECT_NE(status.message().rfind("internal parser error", 0), 0u)
            << input.name << " iter " << i << ": " << status.ToString();
      }
      ++histogram[support::ErrorCodeName(status.code())];
    }
    for (const char* code : input.reached) {
      EXPECT_GT(histogram[code], 0) << input.name << " never reached " << code;
    }
  }
}

// ---------------------------------------------------------------------------
// Stress end-to-end: generate ~10k ops, serialize, re-ingest through the
// hardened path, then drive the result through grouping and simulation —
// proving an ingested graph is a first-class citizen downstream.

TEST(EndToEnd, TenThousandOpIngestedGraphGroupsAndSimulates) {
  models::FuzzGraphConfig config;
  config.num_ops = 5000;  // training augmentation roughly doubles this
  support::Rng rng(42);
  const OpGraph generated = models::BuildFuzzGraph(config, rng);
  ASSERT_GT(generated.num_ops(), 9000);

  IngestOptions opts;
  opts.source_name = "<e2e>";
  StatusOr<OpGraph> parsed =
      graph::ParseTextGraph(SaveTextString(generated), opts);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const OpGraph& graph = parsed.value();
  EXPECT_EQ(graph.num_ops(), generated.num_ops());
  EXPECT_EQ(graph.num_edges(), generated.num_edges());

  const auto cluster = sim::MakeDefaultCluster();
  sim::ExecutionSimulator simulator(graph, cluster);
  const auto result =
      simulator.Run(core::MetisBalancedPlacement(graph, cluster, 42));
  EXPECT_GT(result.step_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// ValidateGraph semantics on hand-built graphs.

TEST(ValidateGraph, AcceptsAWellFormedGraph) {
  EXPECT_TRUE(graph::ValidateGraph(MakeTinyGraph()).ok());
}

TEST(ValidateGraph, RejectsCyclesDuplicatesAndBadNames) {
  OpGraph cyclic = MakeTinyGraph();
  cyclic.AddEdge(1, 0);
  EXPECT_EQ(graph::ValidateGraph(cyclic).code(), ErrorCode::kCycle);

  OpGraph dup = MakeTinyGraph();
  dup.AddEdge(0, 1);  // OpGraph itself permits the duplicate
  EXPECT_EQ(graph::ValidateGraph(dup).code(), ErrorCode::kDuplicateEdge);

  OpGraph bad_name;
  OpDef op;
  op.name = "with space";
  op.type = OpType::kMatMul;
  bad_name.AddOp(std::move(op));
  EXPECT_EQ(graph::ValidateGraph(bad_name).code(), ErrorCode::kSyntax);
}

TEST(ValidateGraph, EnforcesResourceLimits) {
  const OpGraph g = MakeTinyGraph();
  IngestLimits one_op;
  one_op.max_ops = 1;
  EXPECT_EQ(graph::ValidateGraph(g, one_op).code(),
            ErrorCode::kResourceLimit);

  IngestLimits no_edges;
  no_edges.max_edges = 0;
  EXPECT_EQ(graph::ValidateGraph(g, no_edges).code(),
            ErrorCode::kResourceLimit);

  IngestLimits tiny_bytes;
  tiny_bytes.max_total_bytes = 16;  // 4x4 floats alone exceed this
  EXPECT_EQ(graph::ValidateGraph(g, tiny_bytes).code(),
            ErrorCode::kResourceLimit);

  EXPECT_TRUE(graph::ValidateGraph(g, IngestLimits::Unlimited()).ok());
}

// Under Unlimited() the cap is INT64_MAX, so only the overflow guard
// stops edge bytes whose sum leaves int64: 2^62 + 2^62 at the second edge.
TEST(ValidateGraph, SummedEdgeBytesOverflowIsAResourceLimitWhenUnlimited) {
  OpGraph g;
  for (const char* name : {"a", "b", "c", "d"}) {
    OpDef op;
    op.name = name;
    op.type = OpType::kAdd;
    op.output_shape = TensorShape{4};
    g.AddOp(std::move(op));
  }
  const std::int64_t two_to_62 = std::int64_t{1} << 62;
  g.AddEdge(0, 2, two_to_62);
  g.AddEdge(1, 2, two_to_62);
  g.AddEdge(2, 3, two_to_62);
  const Status status = graph::ValidateGraph(g, IngestLimits::Unlimited());
  EXPECT_EQ(status.code(), ErrorCode::kResourceLimit);
  EXPECT_NE(status.message().find("'b' -> 'c'"), std::string::npos)
      << status.message();
}

TEST(ValidateGraph, CheckedOpBytesRejectsOverflowingShapes) {
  OpDef sane;
  sane.name = "a";
  sane.output_shape = TensorShape{8, 8};
  sane.param_bytes = 100;
  sane.temp_bytes = 10;
  std::int64_t bytes = 0;
  ASSERT_TRUE(graph::CheckedOpBytes(sane, &bytes).ok());
  EXPECT_EQ(bytes, 8 * 8 * 4 + 100 + 10);

  OpDef huge;
  huge.name = "b";
  huge.output_shape = TensorShape{3'000'000'000, 3'000'000'000};
  EXPECT_EQ(graph::CheckedOpBytes(huge, &bytes).code(),
            ErrorCode::kNumericOverflow);
}

// ---------------------------------------------------------------------------
// File-level dispatch and the io code.

TEST(ImportGraphFile, MissingFileIsIo) {
  const StatusOr<OpGraph> parsed =
      graph::ImportGraphFile("/nonexistent/no_such_graph.eg");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kIo);
  EXPECT_EQ(parsed.status().file(), "/nonexistent/no_such_graph.eg");
}

TEST(ImportGraphFile, DispatchesOnSuffix) {
  const OpGraph g = MakeTinyGraph();
  const std::string eg_path = testing::TempDir() + "ingest_dispatch.eg";
  const std::string json_path = testing::TempDir() + "ingest_dispatch.json";
  ASSERT_TRUE(graph::SaveTextFile(g, eg_path));
  {
    std::ofstream out(json_path, std::ios::binary);
    out << graph::ToJson(g);
    ASSERT_TRUE(out.good());
  }
  const StatusOr<OpGraph> from_eg = graph::ImportGraphFile(eg_path);
  ASSERT_TRUE(from_eg.ok()) << from_eg.status().ToString();
  EXPECT_EQ(from_eg.value().num_ops(), 2);
  const StatusOr<OpGraph> from_json = graph::ImportGraphFile(json_path);
  ASSERT_TRUE(from_json.ok()) << from_json.status().ToString();
  EXPECT_EQ(from_json.value().num_ops(), 2);
}

// A directory opens like a file but fails the first read: for both
// importers and both suffixes that is an io error, not an empty input or
// a JSON syntax error. A really empty file still reaches the parser.
TEST(ImportFile, ReadErrorIsIoForEveryImporterAndSuffix) {
  for (const char* name : {"unreadable_input", "unreadable_input.json"}) {
    const std::string path = testing::TempDir() + name;
    std::filesystem::create_directories(path);
    for (const Status& status : {graph::ImportGraphFile(path).status(),
                                 sim::ImportClusterFile(path).status()}) {
      EXPECT_EQ(status.ToString(), path + ": [io] read error");
    }
  }
  const std::string empty = testing::TempDir() + "empty_input.json";
  std::ofstream(empty).close();
  for (const Status& status : {graph::ImportGraphFile(empty).status(),
                               sim::ImportClusterFile(empty).status()}) {
    EXPECT_EQ(status.ToString(),
              empty + ":1:1: [syntax] JSON at offset 0: unexpected end of "
                      "input");
  }
}

}  // namespace
}  // namespace eagle
