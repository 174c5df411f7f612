#include "graph/ingest.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/record_reader.h"
#include "support/json.h"
#include "support/metrics.h"

namespace eagle::graph {

using support::ErrorCode;
using support::Status;
using support::StatusOr;

namespace {

// The (src, dst) pairs declared so far, for the duplicate-edge check: an
// open-addressing set of packed 64-bit keys (Fibonacci hash, linear
// probing, at most half full).
class EdgePairSet {
 public:
  // False when the pair is already present.
  bool Insert(OpId src, OpId dst) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const std::uint64_t key = Pack(src, dst);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = Home(key);; slot = (slot + 1) & mask) {
      if (slots_[slot] == key) return false;
      if (slots_[slot] == kEmpty) {
        slots_[slot] = key;
        ++size_;
        return true;
      }
    }
  }

 private:
  // Ids are non-negative int32s, so no pair packs to all ones.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::uint64_t Pack(OpId src, OpId dst) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
           static_cast<std::uint32_t>(dst);
  }
  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - bits_));
  }
  void Grow() {
    const std::vector<std::uint64_t> old = std::move(slots_);
    bits_ = old.empty() ? 4 : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint64_t key : old) {
      if (key == kEmpty) continue;
      std::size_t slot = Home(key);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  int bits_ = 0;
  std::size_t size_ = 0;
};

// The whole-graph checks once every op and edge is in: a cycle check,
// then ValidateGraphValues. The parsers refused duplicate pairs as they
// added them (CheckAddEdge), so ValidateGraph's two structural checks
// would only repeat work. The cycle check is Kahn's algorithm with edge
// attribution: when a cycle exists, it reports the first declared edge
// whose both endpoints failed to topologically drain — an edge on (or
// feeding) the cycle — with its source position when the caller tracked
// one.
Status CheckGraph(const OpGraph& graph,
                  const std::vector<std::pair<int, int>>& edge_sites,
                  const IngestOptions& opts) {
  const std::string& source_name = opts.source_name;
  const int n = graph.num_ops();
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const Edge& e : graph.edges()) {
    ++indeg[static_cast<std::size_t>(e.dst)];
  }
  std::vector<OpId> stack;
  for (OpId i = 0; i < n; ++i) {
    if (indeg[static_cast<std::size_t>(i)] == 0) stack.push_back(i);
  }
  int processed = 0;
  while (!stack.empty()) {
    const OpId u = stack.back();
    stack.pop_back();
    ++processed;
    for (std::int32_t ei : graph.out_edges(u)) {
      const OpId v = graph.edges()[static_cast<std::size_t>(ei)].dst;
      if (--indeg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
    }
  }
  if (processed == n) {
    Status status = ValidateGraphValues(graph, opts.limits);
    if (!status.ok()) status.At(source_name);
    return status;
  }
  for (std::size_t i = 0; i < graph.edges().size(); ++i) {
    const Edge& e = graph.edges()[i];
    if (indeg[static_cast<std::size_t>(e.src)] > 0 &&
        indeg[static_cast<std::size_t>(e.dst)] > 0) {
      Status status = Status::Error(
          ErrorCode::kCycle, "edge " + Quote(graph.op(e.src).name) + " -> " +
                                 Quote(graph.op(e.dst).name) +
                                 " lies on a dependency cycle");
      if (i < edge_sites.size()) {
        status.At(source_name, edge_sites[i].first, edge_sites[i].second);
      } else {
        status.At(source_name);
      }
      return status;
    }
  }
  return Status::Error(ErrorCode::kCycle, "graph contains a cycle")
      .At(source_name);
}

// Caps + byte arithmetic + duplicate-name guard applied before an op is
// admitted; the pre-AddOp CheckedOpBytes call is load-bearing, since
// AddEdge's producer-size default multiplies the shape out unchecked.
Status CheckAddOp(OpGraph* graph, OpDef op, const IngestLimits& limits) {
  if (graph->FindOp(op.name) != kInvalidOp) {
    return Status::Error(ErrorCode::kDuplicateOp,
                         "op " + Quote(op.name) + " already declared");
  }
  if (graph->num_ops() >= limits.max_ops) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "graph exceeds the " +
                             std::to_string(limits.max_ops) + "-op limit");
  }
  if (op.output_shape.rank() > limits.max_rank) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "op " + Quote(op.name) + " has rank " +
                             std::to_string(op.output_shape.rank()) +
                             ", limit is " +
                             std::to_string(limits.max_rank));
  }
  std::int64_t bytes = 0;
  Status status = CheckedOpBytes(op, &bytes);
  if (!status.ok()) return status;
  graph->AddOp(std::move(op));
  return Status::Ok();
}

// Shared by both parsers once endpoints resolve to valid ids. `bytes`
// is either >= 0 or the -1 producer-size sentinel (negative values from
// the input must be rejected by the caller first).
Status CheckAddEdge(OpGraph* graph, EdgePairSet* pairs, OpId src, OpId dst,
                    std::int64_t bytes, const IngestLimits& limits) {
  if (src == dst) {
    return Status::Error(ErrorCode::kCycle,
                         "self edge on op " + Quote(graph->op(src).name));
  }
  if (!pairs->Insert(src, dst)) {
    return Status::Error(ErrorCode::kDuplicateEdge,
                         "duplicate edge " + Quote(graph->op(src).name) +
                             " -> " + Quote(graph->op(dst).name));
  }
  if (graph->num_edges() >= limits.max_edges) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "graph exceeds the " +
                             std::to_string(limits.max_edges) +
                             "-edge limit");
  }
  graph->AddEdge(src, dst, bytes);
  return Status::Ok();
}

StatusOr<OpGraph> ParseText(std::istream& in, const IngestOptions& opts) {
  OpGraph graph;
  EdgePairSet pairs;
  std::vector<std::pair<int, int>> edge_sites;
  LineReader reader(in, opts.source_name);
  while (reader.Next()) {
    const std::vector<Token>& toks = reader.tokens();
    if (toks[0].text == "op") {
      if (toks.size() < 4) {
        return reader.Error(ErrorCode::kSyntax,
                            "op line needs: op <name> <type> <shape>",
                            toks[0]);
      }
      OpDef op;
      op.name = std::string(toks[1].text);
      op.type = OpTypeFromName(toks[2].text);
      if (op.type == OpType::kNumOpTypes) {
        return reader.Error(ErrorCode::kUnknownOp,
                            "unknown op type " + Quote(toks[2].text),
                            toks[2]);
      }
      if (toks[3].text != "scalar") {
        std::vector<std::int64_t> dims;
        const std::string_view shape = toks[3].text;
        std::size_t start = 0;
        while (true) {
          const std::size_t x = shape.find('x', start);
          // substr clamps the npos - start count of the last dimension.
          const Token dim{shape.substr(start, x - start),
                          toks[3].col + static_cast<int>(start)};
          std::int64_t d = 0;
          Status status = reader.NonNegative(dim, "shape dimension", &d);
          if (!status.ok()) return status;
          dims.push_back(d);
          if (x == std::string_view::npos) break;
          start = x + 1;
        }
        op.output_shape = TensorShape(std::move(dims));
      }
      for (std::size_t t = 4; t < toks.size(); ++t) {
        const Token& tok = toks[t];
        Token value;
        Status status;
        if (tok.text == "cpu_only") {
          op.cpu_only = true;
        } else if (tok.text == "grad") {
          op.is_gradient = true;
        } else if (KeyValue(tok, "layer", &value)) {
          op.layer = std::string(value.text);
        } else if (KeyValue(tok, "colo", &value)) {
          std::int64_t group = op.colocation_group;
          status = reader.Integer(value, "colocation group", -1,
                                  std::int64_t{0x7fffffff}, &group);
          op.colocation_group = static_cast<std::int32_t>(group);
        } else if (!reader.NumberAttr(tok, "flops", Sign::kNonNegative,
                                      &op.flops, &status) &&
                   !reader.NumberAttr(tok, "params", Sign::kNonNegative,
                                      &op.param_bytes, &status) &&
                   !reader.NumberAttr(tok, "temp", Sign::kNonNegative,
                                      &op.temp_bytes, &status)) {
          status = reader.Unknown("attribute", tok);
        }
        if (!status.ok()) return status;
      }
      // The name token's position doubles as the op's: every later
      // failure about this op (caps, byte overflow) points there.
      Status status = CheckAddOp(&graph, std::move(op), opts.limits);
      if (!status.ok()) return reader.At(std::move(status), toks[1]);
    } else if (toks[0].text == "edge") {
      if (toks.size() < 3 || toks.size() > 4) {
        return reader.Error(ErrorCode::kSyntax,
                            "edge line needs: edge <src> <dst> [bytes]",
                            toks[0]);
      }
      OpId ends[2] = {kInvalidOp, kInvalidOp};
      for (int k = 0; k < 2; ++k) {
        const Token& end = toks[1 + static_cast<std::size_t>(k)];
        ends[k] = graph.FindOp(end.text);
        if (ends[k] == kInvalidOp) {
          return reader.Error(ErrorCode::kDanglingRef,
                              "unknown op " + Quote(end.text), end);
        }
      }
      std::int64_t bytes = -1;  // producer output size
      if (toks.size() == 4) {
        Status status = reader.NonNegative(toks[3], "edge bytes", &bytes);
        if (!status.ok()) return status;
      }
      Status status =
          CheckAddEdge(&graph, &pairs, ends[0], ends[1], bytes, opts.limits);
      if (!status.ok()) return reader.At(std::move(status), toks[1]);
      edge_sites.emplace_back(reader.line(), toks[1].col);
    } else {
      return reader.Unknown("directive", toks[0]);
    }
  }
  Status status = reader.Finish();
  if (status.ok()) status = CheckGraph(graph, edge_sites, opts);
  if (!status.ok()) return status;
  return graph;
}

StatusOr<OpGraph> ParseJson(const std::string& text,
                            const IngestOptions& opts) {
  namespace json = support::json;
  const std::string& src_name = opts.source_name;
  json::Value root;
  const json::Value* jops = nullptr;
  const json::Value* jedges = nullptr;
  Status status = ParseJsonObject(text, src_name, &root);
  if (status.ok()) status = RequireArray(root, "ops", src_name, &jops);
  if (status.ok()) status = RequireArray(root, "edges", src_name, &jedges);
  if (!status.ok()) return status;

  OpGraph graph;
  for (std::size_t i = 0; i < jops->items().size(); ++i) {
    JsonRecord rec(jops->items()[i], "ops", i, src_name);
    OpDef op;
    const json::Value* name =
        rec.Require("name", IsNonEmptyString, "missing or empty");
    const json::Value* type = rec.Require("type", IsString, "missing");
    if (type != nullptr) {
      op.type = OpTypeFromName(type->string_value());
      if (op.type == OpType::kNumOpTypes) {
        rec.Fail(ErrorCode::kUnknownOp,
                 ": unknown op type " + Quote(type->string_value()));
      }
    }
    const json::Value* shape =
        rec.Require("shape", IsArray, "missing or non-array");
    std::vector<std::int64_t> dims;
    for (std::size_t d = 0; shape != nullptr && d < shape->items().size();
         ++d) {
      const json::Value& dim = shape->items()[d];
      std::int64_t v = 0;
      if (!dim.is_number()) {
        rec.Fail(ErrorCode::kSyntax, " has a non-numeric shape dimension");
        break;
      }
      if (!JsonToInt64(dim.number(), &v) || v < 0) {
        rec.Fail(ErrorCode::kNumericOverflow,
                 " has a negative, fractional or overflowing shape "
                 "dimension");
        break;
      }
      dims.push_back(v);
    }
    rec.Number("flops", Sign::kNonNegative, &op.flops);
    rec.Integer("param_bytes", 0, INT64_MAX, &op.param_bytes);
    rec.Integer("temp_bytes", 0, INT64_MAX, &op.temp_bytes);
    rec.Bool("cpu_only", &op.cpu_only);
    rec.Bool("is_gradient", &op.is_gradient);
    const json::Value* layer = rec.Optional("layer", IsString, "non-string");
    std::int64_t group = op.colocation_group;
    rec.Integer("colocation", -1, std::int64_t{0x7fffffff}, &group);
    if (!rec.ok()) return rec.status();
    op.name = name->string_value();
    op.output_shape = TensorShape(std::move(dims));
    if (layer != nullptr) op.layer = layer->string_value();
    op.colocation_group = static_cast<std::int32_t>(group);
    status = CheckAddOp(&graph, std::move(op), opts.limits);
    if (!status.ok()) return rec.Wrap(status);
  }

  EdgePairSet pairs;
  for (std::size_t i = 0; i < jedges->items().size(); ++i) {
    JsonRecord rec(jedges->items()[i], "edges", i, src_name);
    OpId ends[2] = {kInvalidOp, kInvalidOp};
    const char* keys[2] = {"src", "dst"};
    for (int k = 0; k < 2; ++k) {
      const json::Value* v = rec.Require(keys[k], IsNumber,
                                         "missing or non-numeric");
      if (v == nullptr) break;
      std::int64_t id = 0;
      if (!JsonToInt64(v->number(), &id)) {
        rec.Fail(ErrorCode::kNumericOverflow,
                 std::string(" has a non-integer \"") + keys[k] + "\"");
      } else if (id < 0 || id >= graph.num_ops()) {
        rec.Fail(ErrorCode::kDanglingRef,
                 std::string(": \"") + keys[k] + "\" " +
                     std::to_string(id) + " names no declared op");
      } else {
        ends[k] = static_cast<OpId>(id);
      }
    }
    std::int64_t bytes = -1;  // producer output size
    rec.Integer("bytes", 0, INT64_MAX, &bytes);
    if (!rec.ok()) return rec.status();
    status = CheckAddEdge(&graph, &pairs, ends[0], ends[1], bytes, opts.limits);
    if (!status.ok()) return rec.Wrap(status);
  }
  status = CheckGraph(graph, {}, opts);
  if (!status.ok()) return status;
  return graph;
}

}  // namespace

StatusOr<OpGraph> ParseTextGraph(const std::string& text,
                                 const IngestOptions& opts) {
  EAGLE_SPAN("graph.import");
  std::istringstream in(text);
  return NoThrow(opts.source_name, [&] { return ParseText(in, opts); });
}

StatusOr<OpGraph> FromJson(const std::string& text,
                           const IngestOptions& opts) {
  EAGLE_SPAN("graph.import");
  return NoThrow(opts.source_name, [&] { return ParseJson(text, opts); });
}

StatusOr<OpGraph> ImportGraphFile(const std::string& path,
                                  const IngestOptions& opts) {
  EAGLE_SPAN("graph.import");
  IngestOptions file_opts = opts;
  file_opts.source_name = path;
  return ImportFile(
      path, "graph",
      [&](std::istream& in) { return ParseText(in, file_opts); },
      [&](const std::string& text) { return ParseJson(text, file_opts); });
}

}  // namespace eagle::graph
