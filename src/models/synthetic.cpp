#include "models/synthetic.h"

#include <cmath>
#include <string>
#include <vector>

#include "models/builder.h"
#include "models/training_graph.h"
#include "support/check.h"

namespace eagle::models {

using graph::OpId;
using graph::OpType;
using graph::TensorShape;

graph::OpGraph BuildChain(int n, std::int64_t tensor_elems,
                          double flops_per_op) {
  EAGLE_CHECK(n >= 1);
  GraphBuilder b;
  OpId prev = b.Add(OpType::kPlaceholder, "input", TensorShape{tensor_elems},
                    {});
  for (int i = 0; i < n; ++i) {
    prev = b.Add(OpType::kMatMul, "op" + std::to_string(i),
                 TensorShape{tensor_elems}, {prev}, {.flops = flops_per_op});
  }
  return b.TakeGraph();
}

graph::OpGraph BuildParallelChains(int width, int depth,
                                   std::int64_t tensor_elems,
                                   double flops_per_op) {
  EAGLE_CHECK(width >= 1 && depth >= 1);
  GraphBuilder b;
  OpId source = b.Add(OpType::kPlaceholder, "input",
                      TensorShape{tensor_elems}, {});
  std::vector<OpId> tails;
  for (int w = 0; w < width; ++w) {
    OpId prev = source;
    for (int d = 0; d < depth; ++d) {
      prev = b.Add(OpType::kMatMul,
                   "chain" + std::to_string(w) + "_op" + std::to_string(d),
                   TensorShape{tensor_elems}, {prev},
                   {.flops = flops_per_op,
                    .layer = "chain" + std::to_string(w)});
    }
    tails.push_back(prev);
  }
  b.Add(OpType::kConcat, "join",
        TensorShape{static_cast<std::int64_t>(width) * tensor_elems}, tails);
  return b.TakeGraph();
}

graph::OpGraph BuildRandomDag(const RandomDagConfig& config,
                              support::Rng& rng) {
  EAGLE_CHECK(config.layers >= 1 && config.width >= 1);
  GraphBuilder b;
  std::vector<OpId> previous;
  previous.push_back(
      b.Add(OpType::kPlaceholder, "input", TensorShape{1024}, {}));
  // Log-uniform draw in [lo, hi].
  auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(rng.NextUniform(std::log(lo), std::log(hi)));
  };

  std::vector<OpId> all = previous;
  for (int layer = 0; layer < config.layers; ++layer) {
    std::vector<OpId> current;
    for (int w = 0; w < config.width; ++w) {
      const auto elems = static_cast<std::int64_t>(
          log_uniform(static_cast<double>(config.min_elems),
                      static_cast<double>(config.max_elems)));
      const double flops = log_uniform(config.min_flops, config.max_flops);
      const bool cpu_only = rng.NextDouble() < config.cpu_only_fraction;
      GraphBuilder::Opts opts{.flops = flops,
                              .param_bytes = rng.NextDouble() < 0.3
                                                 ? elems * 4
                                                 : 0,
                              .cpu_only = cpu_only,
                              .layer = "rank" + std::to_string(layer)};
      OpId op = b.Add(cpu_only ? OpType::kEmbeddingLookup : OpType::kMatMul,
                      std::string("l")
                          .append(std::to_string(layer))
                          .append("_op")
                          .append(std::to_string(w)),
                      TensorShape{elems}, {}, opts);
      const int fanin =
          1 + static_cast<int>(rng.NextBelow(
                  static_cast<std::uint64_t>(config.max_fanin)));
      for (int f = 0; f < fanin; ++f) {
        // Prefer recent producers so depth actually grows.
        const std::size_t lo =
            all.size() > static_cast<std::size_t>(2 * config.width)
                ? all.size() - static_cast<std::size_t>(2 * config.width)
                : 0;
        const auto pick =
            lo + rng.NextBelow(static_cast<std::uint64_t>(all.size() - lo));
        b.Wire(all[static_cast<std::size_t>(pick)], op);
      }
      current.push_back(op);
    }
    for (OpId id : current) all.push_back(id);
    previous = std::move(current);
  }
  // Join everything into one sink so the DAG has a single loss-like output.
  OpId loss = b.Add(OpType::kCrossEntropy, "loss", TensorShape{1}, previous);
  graph::OpGraph graph = b.TakeGraph();
  if (config.training) AddTrainingOps(graph, loss);
  return graph;
}

}  // namespace eagle::models
