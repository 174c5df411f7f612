#include "graph/op_graph.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "support/check.h"

namespace eagle::graph {

namespace {
constexpr const char* kOpTypeNames[] = {
    "Const",        "Variable",    "Placeholder",  "Identity",
    "Conv2D",       "DepthwiseConv", "MatMul",     "BatchMatMul",
    "BiasAdd",      "Add",         "Sub",          "Mul",
    "Div",          "Relu",        "Gelu",         "Tanh",
    "Sigmoid",      "Softmax",     "LogSoftmax",   "MaxPool",
    "AvgPool",      "BatchNorm",   "LayerNorm",    "Concat",
    "Split",        "Reshape",     "Transpose",    "EmbeddingLookup",
    "Gather",       "Dropout",     "ReduceSum",    "ReduceMean",
    "CrossEntropy", "ApplyAdam",   "AllReduceLocal"};
static_assert(sizeof(kOpTypeNames) / sizeof(kOpTypeNames[0]) == kNumOpTypes,
              "op type name table out of sync with OpType");
}  // namespace

const char* OpTypeName(OpType type) {
  const int i = static_cast<int>(type);
  EAGLE_CHECK(i >= 0 && i < kNumOpTypes);
  return kOpTypeNames[i];
}

OpType OpTypeFromName(std::string_view name) {
  for (int i = 0; i < kNumOpTypes; ++i) {
    if (name == kOpTypeNames[i]) return static_cast<OpType>(i);
  }
  return OpType::kNumOpTypes;
}

void OpGraph::CheckId(OpId id) const {
  EAGLE_CHECK_MSG(id >= 0 && id < num_ops(), "op id " << id << " out of range");
}

OpId OpGraph::AddOp(OpDef op) {
  EAGLE_CHECK_MSG(!op.name.empty(), "op must be named");
  EAGLE_CHECK_MSG(by_name_.find(op.name) == by_name_.end(),
                  "duplicate op name " << op.name);
  const OpId id = static_cast<OpId>(ops_.size());
  by_name_.emplace(op.name, id);
  ops_.push_back(std::move(op));
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return id;
}

void OpGraph::AddEdge(OpId src, OpId dst, std::int64_t bytes) {
  CheckId(src);
  CheckId(dst);
  EAGLE_CHECK_MSG(src != dst, "self edge on " << ops_[static_cast<std::size_t>(src)].name);
  if (bytes < 0) bytes = ops_[static_cast<std::size_t>(src)].output_bytes();
  const auto edge_idx = static_cast<std::int32_t>(edges_.size());
  edges_.push_back(Edge{src, dst, bytes});
  out_edges_[static_cast<std::size_t>(src)].push_back(edge_idx);
  in_edges_[static_cast<std::size_t>(dst)].push_back(edge_idx);
}

const OpDef& OpGraph::op(OpId id) const {
  CheckId(id);
  return ops_[static_cast<std::size_t>(id)];
}

OpDef& OpGraph::mutable_op(OpId id) {
  CheckId(id);
  return ops_[static_cast<std::size_t>(id)];
}

const std::vector<std::int32_t>& OpGraph::out_edges(OpId id) const {
  CheckId(id);
  return out_edges_[static_cast<std::size_t>(id)];
}

const std::vector<std::int32_t>& OpGraph::in_edges(OpId id) const {
  CheckId(id);
  return in_edges_[static_cast<std::size_t>(id)];
}

OpId OpGraph::FindOp(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidOp : it->second;
}

std::vector<OpId> OpGraph::TopologicalOrder() const {
  std::vector<int> in_degree(static_cast<std::size_t>(num_ops()), 0);
  for (const auto& e : edges_) in_degree[static_cast<std::size_t>(e.dst)]++;
  std::deque<OpId> ready;
  for (OpId i = 0; i < num_ops(); ++i)
    if (in_degree[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  std::vector<OpId> order;
  order.reserve(static_cast<std::size_t>(num_ops()));
  while (!ready.empty()) {
    const OpId u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (auto ei : out_edges_[static_cast<std::size_t>(u)]) {
      const OpId v = edges_[static_cast<std::size_t>(ei)].dst;
      if (--in_degree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
    }
  }
  EAGLE_CHECK_MSG(static_cast<int>(order.size()) == num_ops(),
                  "graph has a cycle");
  return order;
}

bool OpGraph::IsDag() const {
  try {
    TopologicalOrder();
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

std::vector<OpId> OpGraph::SourceOps() const {
  std::vector<OpId> out;
  for (OpId i = 0; i < num_ops(); ++i)
    if (in_edges_[static_cast<std::size_t>(i)].empty()) out.push_back(i);
  return out;
}

std::vector<OpId> OpGraph::SinkOps() const {
  std::vector<OpId> out;
  for (OpId i = 0; i < num_ops(); ++i)
    if (out_edges_[static_cast<std::size_t>(i)].empty()) out.push_back(i);
  return out;
}

double OpGraph::TotalFlops() const {
  double total = 0.0;
  for (const auto& op : ops_) total += op.flops;
  return total;
}

std::int64_t OpGraph::TotalParamBytes() const {
  std::int64_t total = 0;
  for (const auto& op : ops_) total += op.param_bytes;
  return total;
}

std::int64_t OpGraph::TotalEdgeBytes() const {
  std::int64_t total = 0;
  for (const auto& e : edges_) total += e.bytes;
  return total;
}

int OpGraph::CriticalPathLength() const {
  const auto order = TopologicalOrder();
  std::vector<int> depth(static_cast<std::size_t>(num_ops()), 1);
  int best = num_ops() > 0 ? 1 : 0;
  for (OpId u : order) {
    for (auto ei : out_edges_[static_cast<std::size_t>(u)]) {
      const OpId v = edges_[static_cast<std::size_t>(ei)].dst;
      depth[static_cast<std::size_t>(v)] =
          std::max(depth[static_cast<std::size_t>(v)],
                   depth[static_cast<std::size_t>(u)] + 1);
      best = std::max(best, depth[static_cast<std::size_t>(v)]);
    }
  }
  return best;
}

OpGraph::Stats OpGraph::Summarize() const {
  Stats s;
  s.num_ops = num_ops();
  s.num_edges = num_edges();
  s.total_gflops = TotalFlops() / 1e9;
  s.param_gbytes = static_cast<double>(TotalParamBytes()) / (1 << 30);
  s.edge_gbytes = static_cast<double>(TotalEdgeBytes()) / (1 << 30);
  s.critical_path = CriticalPathLength();
  for (const auto& op : ops_)
    if (op.cpu_only) s.cpu_only_ops++;
  return s;
}

std::string OpGraph::StatsString() const {
  const Stats s = Summarize();
  std::ostringstream os;
  os << s.num_ops << " ops, " << s.num_edges << " edges, " << s.total_gflops
     << " GFLOP, " << s.param_gbytes << " GB params, " << s.edge_gbytes
     << " GB edge traffic, critical path " << s.critical_path << ", "
     << s.cpu_only_ops << " cpu-only ops";
  return os.str();
}

void ValidateGrouping(const OpGraph& graph, const Grouping& grouping,
                      int num_groups) {
  EAGLE_CHECK_MSG(static_cast<int>(grouping.size()) == graph.num_ops(),
                  "grouping size " << grouping.size() << " != num ops "
                                   << graph.num_ops());
  EAGLE_CHECK(num_groups > 0);
  for (std::size_t i = 0; i < grouping.size(); ++i) {
    EAGLE_CHECK_MSG(grouping[i] >= 0 && grouping[i] < num_groups,
                    "op " << i << " assigned to invalid group "
                          << grouping[i]);
  }
}

}  // namespace eagle::graph
