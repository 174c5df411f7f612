// Model zoo: the three paper benchmarks behind one string-keyed factory,
// with per-model scale presets so benches can run reduced configurations
// on small machines (--full restores paper-scale graphs).
#pragma once

#include <string>
#include <vector>

#include "graph/op_graph.h"

namespace eagle::models {

enum class Benchmark { kInceptionV3, kGNMT, kBertBase };

// Parses "inception_v3" / "gnmt" / "bert"; an unknown name throws
// std::invalid_argument with a one-line message naming it.
Benchmark BenchmarkFromName(const std::string& name);
const char* BenchmarkName(Benchmark benchmark);

// All paper benchmarks in evaluation order (Tables I–IV rows).
std::vector<Benchmark> AllBenchmarks();

struct ZooOptions {
  // Scales the sequence length / layer count of the big models down so a
  // full RL sweep runs on one CPU core; the placement landscape (branches,
  // recurrences, memory pressure relative to device memory) is preserved
  // by also scaling the simulated device memory in MakeScaledCluster().
  bool reduced = false;
  bool training = true;
};

graph::OpGraph BuildBenchmark(Benchmark benchmark,
                              const ZooOptions& options = {});

}  // namespace eagle::models
