#include "models/fuzz_corpus.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "models/builder.h"
#include "models/training_graph.h"
#include "support/check.h"

namespace eagle::models {

using graph::OpId;
using graph::OpType;
using graph::TensorShape;

namespace {

// Compute op palette; cpu_only ops draw kEmbeddingLookup separately.
constexpr OpType kPalette[] = {
    OpType::kMatMul,  OpType::kConv2D,  OpType::kRelu,
    OpType::kLayerNorm, OpType::kAdd,   OpType::kSoftmax,
    OpType::kTanh,    OpType::kMul,     OpType::kReshape,
    OpType::kConcat,
};

// Ranks 0–4, dims ≤ 32 (≤ 4 MiB per tensor): large enough to exercise
// every shape-printing path, small enough that a 100k-op corpus stays
// far inside IngestLimits::max_total_bytes.
TensorShape RandomShape(support::Rng& rng) {
  const int rank = static_cast<int>(rng.NextBelow(5));  // 0..4
  std::vector<std::int64_t> dims;
  for (int i = 0; i < rank; ++i) {
    dims.push_back(rng.NextInt(1, 32));
  }
  return TensorShape(std::move(dims));
}

}  // namespace

graph::OpGraph BuildFuzzGraph(const FuzzGraphConfig& config,
                              support::Rng& rng) {
  EAGLE_CHECK(config.num_ops >= 1 && config.width >= 1 &&
              config.max_fanin >= 1);
  GraphBuilder b;
  std::vector<OpId> all;
  all.push_back(
      b.Add(OpType::kPlaceholder, "input", TensorShape{1024}, {}));

  const int layers =
      std::max(1, (config.num_ops + config.width - 1) / config.width);
  std::vector<OpId> previous = all;
  int generated = 0;
  for (int layer = 0; layer < layers && generated < config.num_ops;
       ++layer) {
    std::vector<OpId> current;
    for (int w = 0; w < config.width && generated < config.num_ops; ++w) {
      ++generated;
      const bool cpu_only = rng.NextDouble() < 0.02;
      const OpType type =
          cpu_only ? OpType::kEmbeddingLookup
                   : kPalette[rng.NextBelow(std::size(kPalette))];
      TensorShape shape = RandomShape(rng);
      const double flops =
          std::exp(rng.NextUniform(std::log(1e5), std::log(1e9)));
      GraphBuilder::Opts opts{
          .flops = flops,
          .param_bytes = rng.NextDouble() < 0.25
                             ? shape.NumElements() * 4
                             : 0,
          .cpu_only = cpu_only,
          .layer = "fz" + std::to_string(layer)};
      const OpId op = b.Add(type,
                            std::string("l")
                                .append(std::to_string(layer))
                                .append("_op")
                                .append(std::to_string(w)),
                            std::move(shape), {}, opts);
      // Distinct fan-in picks from a recent window: the dedup is what
      // keeps the corpus inside ValidateGraph's duplicate-edge rule.
      const std::size_t window_lo =
          all.size() > static_cast<std::size_t>(4 * config.width)
              ? all.size() - static_cast<std::size_t>(4 * config.width)
              : 0;
      const int fanin = 1 + static_cast<int>(rng.NextBelow(
                                static_cast<std::uint64_t>(config.max_fanin)));
      std::set<OpId> producers;
      for (int f = 0; f < fanin; ++f) {
        const std::size_t pick =
            window_lo + rng.NextBelow(static_cast<std::uint64_t>(
                            all.size() - window_lo));
        producers.insert(all[pick]);
      }
      for (OpId producer : producers) {
        if (rng.NextDouble() < 0.1) {
          // Explicit byte override (sliced-tensor idiom): a fixed small
          // payload instead of the producer's full output.
          b.Wire(producer, op, rng.NextInt(4, 4096) * 4);
        } else {
          b.Wire(producer, op);
        }
      }
      current.push_back(op);
    }
    for (OpId id : current) all.push_back(id);
    previous = std::move(current);
  }
  const OpId loss =
      b.Add(OpType::kCrossEntropy, "loss", TensorShape{1}, previous);

  graph::OpGraph graph = b.TakeGraph();
  // Sprinkle the attributes the .eg/JSON writers only emit when
  // non-default, so round-trip tests cover them: scratch memory on some
  // ops, small colocation islands (pairs of same-layer neighbors).
  std::int32_t next_group = 0;
  for (OpId i = 1; i + 1 < graph.num_ops(); ++i) {
    if (rng.NextDouble() < 0.05) {
      graph.mutable_op(i).temp_bytes = rng.NextInt(1, 1 << 16) * 4;
    }
    if (rng.NextDouble() < 0.02 && i + 1 < loss) {
      const std::int32_t group = next_group++;
      graph.mutable_op(i).colocation_group = group;
      graph.mutable_op(i + 1).colocation_group = group;
    }
  }
  if (config.training) AddTrainingOps(graph, loss);
  return graph;
}

std::string MutateSerializedGraph(const std::string& text,
                                  support::Rng& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const std::uint64_t strategy = rng.NextBelow(8);
  const std::size_t pos = rng.NextBelow(out.size());
  switch (strategy) {
    case 0: {  // flip one byte to a random printable (or NUL) character
      const char replacement =
          static_cast<char>(rng.NextBelow(96));  // 0..95 → NUL + punct/alnum
      out[pos] = replacement == 0 ? '\0' : static_cast<char>(31 + replacement);
      break;
    }
    case 1: {  // delete a short span
      const std::size_t len =
          std::min<std::size_t>(1 + rng.NextBelow(16), out.size() - pos);
      out.erase(pos, len);
      break;
    }
    case 2: {  // duplicate the line containing pos
      const std::size_t begin = out.rfind('\n', pos);
      const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
      std::size_t end = out.find('\n', pos);
      if (end == std::string::npos) end = out.size();
      const std::string line = out.substr(start, end - start);
      out.insert(start, line + "\n");
      break;
    }
    case 3: {  // delete the line containing pos
      const std::size_t begin = out.rfind('\n', pos);
      const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
      std::size_t end = out.find('\n', pos);
      end = end == std::string::npos ? out.size() : end + 1;
      out.erase(start, end - start);
      break;
    }
    case 4: {  // inflate the digit run at/after pos: past int64 (overflow
               // probing), or to a huge in-range 2^62 or INT64_MAX that
               // the parsers accept and only later arithmetic can trip on
      const auto is_digit = [&out](std::size_t i) {
        return i < out.size() && out[i] >= '0' && out[i] <= '9';
      };
      std::size_t digit = pos;
      while (digit < out.size() && !is_digit(digit)) ++digit;
      std::size_t end = digit;
      while (is_digit(end)) ++end;
      static const char* const kValues[] = {
          "99999999999999999999",  // inserted: overflows any integer field
          "4611686018427387904",   // 2^62, replaces the run
          "9223372036854775807"};  // INT64_MAX, replaces the run
      const std::uint64_t kind = rng.NextBelow(3);
      if (digit == out.size()) {
        out += std::string(" ") + kValues[kind];
      } else if (kind != 0 &&
                 out.compare(digit, end - digit, kValues[kind]) != 0) {
        out.replace(digit, end - digit, kValues[kind]);
      } else {
        out.insert(digit, kValues[0]);
      }
      break;
    }
    case 5: {  // swap two whitespace-separated tokens on pos's line
      const std::size_t begin = out.rfind('\n', pos);
      const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
      std::size_t end = out.find('\n', pos);
      if (end == std::string::npos) end = out.size();
      std::string line = out.substr(start, end - start);
      std::vector<std::pair<std::size_t, std::size_t>> tokens;
      std::size_t i = 0;
      while (i < line.size()) {
        if (line[i] == ' ') {
          ++i;
          continue;
        }
        std::size_t j = i;
        while (j < line.size() && line[j] != ' ') ++j;
        tokens.emplace_back(i, j - i);
        i = j;
      }
      if (tokens.size() >= 2) {
        const std::size_t a = rng.NextBelow(tokens.size());
        const std::size_t c = rng.NextBelow(tokens.size());
        if (a != c) {
          const std::string ta = line.substr(tokens[a].first,
                                             tokens[a].second);
          const std::string tc = line.substr(tokens[c].first,
                                             tokens[c].second);
          // Replace the later token first so earlier offsets stay valid.
          const auto& first = tokens[std::min(a, c)];
          const auto& second = tokens[std::max(a, c)];
          line.replace(second.first, second.second, a < c ? ta : tc);
          line.replace(first.first, first.second, a < c ? tc : ta);
          out.replace(start, end - start, line);
          break;
        }
      }
      out.insert(pos, 1, '\x7f');  // fallback so the mutation is never a no-op
      break;
    }
    case 6:  // insert a garbage token
      out.insert(pos, " frobnicate=1e999 ");
      break;
    default:  // truncate
      out.resize(pos);
      break;
  }
  return out;
}

}  // namespace eagle::models
