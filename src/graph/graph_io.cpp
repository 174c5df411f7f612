#include "graph/graph_io.h"

#include <fstream>
#include <sstream>

#include "support/json.h"

namespace eagle::graph {

std::string ToDot(const OpGraph& graph, const Grouping* grouping) {
  std::ostringstream os;
  os << "digraph G {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n";
  for (OpId i = 0; i < graph.num_ops(); ++i) {
    const OpDef& op = graph.op(i);
    os << "  n" << i << " [label=\"" << op.name << "\\n"
       << OpTypeName(op.type) << " " << op.output_shape.ToString() << "\"";
    if (grouping) {
      // 12-color cycle; groups beyond 12 share hues (visual aid only).
      static const char* kColors[] = {
          "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c", "#fb9a99", "#e31a1c",
          "#fdbf6f", "#ff7f00", "#cab2d6", "#6a3d9a", "#ffff99", "#b15928"};
      os << ", style=filled, fillcolor=\""
         << kColors[(*grouping)[static_cast<std::size_t>(i)] % 12] << "\"";
    }
    os << "];\n";
  }
  for (const Edge& e : graph.edges()) {
    os << "  n" << e.src << " -> n" << e.dst << " [label=\""
       << (e.bytes >> 10) << "KB\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string ToJson(const OpGraph& graph) {
  std::ostringstream os;
  os << "{\"ops\":[";
  for (OpId i = 0; i < graph.num_ops(); ++i) {
    const OpDef& op = graph.op(i);
    if (i) os << ",";
    os << "{\"name\":\"" << support::json::Escape(op.name) << "\",\"type\":\""
       << OpTypeName(op.type) << "\",\"shape\":" << op.output_shape.ToString()
       << ",\"flops\":" << op.flops << ",\"param_bytes\":" << op.param_bytes
       << ",\"temp_bytes\":" << op.temp_bytes
       << ",\"cpu_only\":" << (op.cpu_only ? "true" : "false")
       << ",\"is_gradient\":" << (op.is_gradient ? "true" : "false")
       << ",\"layer\":\"" << support::json::Escape(op.layer)
       << "\",\"colocation\":" << op.colocation_group << "}";
  }
  os << "],\"edges\":[";
  for (int i = 0; i < graph.num_edges(); ++i) {
    const Edge& e = graph.edges()[static_cast<std::size_t>(i)];
    if (i) os << ",";
    os << "{\"src\":" << e.src << ",\"dst\":" << e.dst
       << ",\"bytes\":" << e.bytes << "}";
  }
  os << "]}";
  return os.str();
}

void SaveText(const OpGraph& graph, std::ostream& out) {
  out << "# eagle graph, " << graph.num_ops() << " ops, " << graph.num_edges()
      << " edges\n";
  for (OpId i = 0; i < graph.num_ops(); ++i) {
    const OpDef& op = graph.op(i);
    out << "op " << op.name << " " << OpTypeName(op.type) << " ";
    const auto& dims = op.output_shape.dims();
    if (dims.empty()) {
      out << "scalar";
    } else {
      for (std::size_t d = 0; d < dims.size(); ++d) {
        if (d) out << "x";
        out << dims[d];
      }
    }
    out << " flops=" << op.flops << " params=" << op.param_bytes;
    if (op.temp_bytes != 0) out << " temp=" << op.temp_bytes;
    if (op.cpu_only) out << " cpu_only";
    if (op.is_gradient) out << " grad";
    if (!op.layer.empty()) out << " layer=" << op.layer;
    if (op.colocation_group != -1) out << " colo=" << op.colocation_group;
    out << "\n";
  }
  for (const Edge& e : graph.edges()) {
    out << "edge " << graph.op(e.src).name << " " << graph.op(e.dst).name
        << " " << e.bytes << "\n";
  }
}

bool SaveTextFile(const OpGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  SaveText(graph, out);
  return static_cast<bool>(out);
}

}  // namespace eagle::graph
