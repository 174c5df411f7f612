#include "graph/validate.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <utility>
#include <vector>

namespace eagle::graph {

using support::ErrorCode;
using support::Status;

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

// a * b with overflow detection; both non-negative.
bool CheckedMul(std::int64_t a, std::int64_t b, std::int64_t* out) {
  if (a != 0 && b > kInt64Max / a) return false;
  *out = a * b;
  return true;
}

bool CheckedAdd(std::int64_t a, std::int64_t b, std::int64_t* out) {
  if (b > kInt64Max - a) return false;
  *out = a + b;
  return true;
}

bool NameIsSerializable(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (std::isspace(static_cast<unsigned char>(c))) return false;
    if (c == '"' || c == '\\') return false;  // JSON-escape hazards
  }
  if (name[0] == '#') return false;  // would parse back as a comment
  return true;
}

}  // namespace

IngestLimits IngestLimits::Unlimited() {
  IngestLimits limits;
  limits.max_ops = kInt64Max;
  limits.max_edges = kInt64Max;
  limits.max_rank = std::numeric_limits<int>::max();
  limits.max_total_bytes = kInt64Max;
  return limits;
}

Status CheckedOpBytes(const OpDef& op, std::int64_t* out) {
  std::int64_t elems = 1;
  for (std::int64_t d : op.output_shape.dims()) {
    if (d < 0) {
      return Status::Error(ErrorCode::kNumericOverflow,
                           "op '" + op.name + "' has a negative dimension");
    }
    if (!CheckedMul(elems, d, &elems)) {
      return Status::Error(ErrorCode::kNumericOverflow,
                           "shape element count of op '" + op.name +
                               "' overflows int64");
    }
  }
  std::int64_t bytes = 0;
  if (!CheckedMul(elems, 4, &bytes)) {
    return Status::Error(ErrorCode::kNumericOverflow,
                         "output bytes of op '" + op.name +
                             "' overflow int64");
  }
  if (op.param_bytes < 0 || op.temp_bytes < 0) {
    return Status::Error(ErrorCode::kNumericOverflow,
                         "op '" + op.name +
                             "' has negative param/temp bytes");
  }
  if (!CheckedAdd(bytes, op.param_bytes, &bytes) ||
      !CheckedAdd(bytes, op.temp_bytes, &bytes)) {
    return Status::Error(ErrorCode::kNumericOverflow,
                         "total bytes of op '" + op.name +
                             "' overflow int64");
  }
  *out = bytes;
  return Status::Ok();
}

Status ValidateGraphValues(const OpGraph& graph, const IngestLimits& limits) {
  if (graph.num_ops() > limits.max_ops) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "graph has " + std::to_string(graph.num_ops()) +
                             " ops, limit is " +
                             std::to_string(limits.max_ops));
  }
  if (graph.num_edges() > limits.max_edges) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "graph has " + std::to_string(graph.num_edges()) +
                             " edges, limit is " +
                             std::to_string(limits.max_edges));
  }

  std::int64_t total_bytes = 0;
  for (OpId i = 0; i < graph.num_ops(); ++i) {
    const OpDef& op = graph.op(i);
    if (!NameIsSerializable(op.name)) {
      return Status::Error(ErrorCode::kSyntax,
                           "op #" + std::to_string(i) +
                               " has a name that cannot be serialized "
                               "(empty, whitespace, quote or leading '#')");
    }
    if (op.output_shape.rank() > limits.max_rank) {
      return Status::Error(ErrorCode::kResourceLimit,
                           "op '" + op.name + "' has rank " +
                               std::to_string(op.output_shape.rank()) +
                               ", limit is " +
                               std::to_string(limits.max_rank));
    }
    std::int64_t op_bytes = 0;
    Status status = CheckedOpBytes(op, &op_bytes);
    if (!status.ok()) return status;
    if (total_bytes > kInt64Max - op_bytes ||
        total_bytes + op_bytes > limits.max_total_bytes) {
      return Status::Error(ErrorCode::kResourceLimit,
                           "total graph bytes exceed the " +
                               std::to_string(limits.max_total_bytes) +
                               "-byte limit at op '" + op.name + "'");
    }
    total_bytes += op_bytes;
  }

  std::int64_t edge_bytes = 0;
  for (const Edge& e : graph.edges()) {
    if (e.src < 0 || e.src >= graph.num_ops() || e.dst < 0 ||
        e.dst >= graph.num_ops()) {
      return Status::Error(ErrorCode::kDanglingRef,
                           "edge references op id " +
                               std::to_string(e.src < 0 || e.src >=
                                                      graph.num_ops()
                                                  ? e.src
                                                  : e.dst) +
                               " outside [0, " +
                               std::to_string(graph.num_ops()) + ")");
    }
    if (e.src == e.dst) {
      return Status::Error(ErrorCode::kCycle,
                           "self edge on op '" + graph.op(e.src).name + "'");
    }
    if (e.bytes < 0) {
      return Status::Error(ErrorCode::kNumericOverflow,
                           "edge " + graph.op(e.src).name + " -> " +
                               graph.op(e.dst).name +
                               " carries negative bytes");
    }
    // The partitioner and the simulator add edge bytes up unchecked.
    if (edge_bytes > kInt64Max - e.bytes ||
        edge_bytes + e.bytes > limits.max_total_bytes) {
      return Status::Error(ErrorCode::kResourceLimit,
                           "total edge bytes exceed the " +
                               std::to_string(limits.max_total_bytes) +
                               "-byte limit at edge '" +
                               graph.op(e.src).name + "' -> '" +
                               graph.op(e.dst).name + "'");
    }
    edge_bytes += e.bytes;
  }
  return Status::Ok();
}

Status ValidateGraph(const OpGraph& graph, const IngestLimits& limits) {
  Status status = ValidateGraphValues(graph, limits);
  if (!status.ok()) return status;
  std::vector<std::pair<OpId, OpId>> pairs;
  pairs.reserve(static_cast<std::size_t>(graph.num_edges()));
  for (const Edge& e : graph.edges()) pairs.emplace_back(e.src, e.dst);
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i] == pairs[i - 1]) {
      return Status::Error(ErrorCode::kDuplicateEdge,
                           "duplicate edge " + graph.op(pairs[i].first).name +
                               " -> " + graph.op(pairs[i].second).name);
    }
  }

  if (!graph.IsDag()) {
    return Status::Error(ErrorCode::kCycle, "graph contains a cycle");
  }
  return Status::Ok();
}

}  // namespace eagle::graph
