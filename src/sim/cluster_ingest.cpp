#include "sim/cluster_ingest.h"

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/record_reader.h"
#include "support/json.h"

namespace eagle::sim {

using graph::JsonRecord;
using graph::LineReader;
using graph::Quote;
using graph::Sign;
using graph::Token;
using support::ErrorCode;
using support::Status;
using support::StatusOr;

namespace {

// Shared parser state: name→id resolution, string channel labels mapped
// to dense integer labels in first-use order, duplicate-link detection.
struct Builder {
  ClusterSpec cluster;
  std::map<std::string, DeviceId, std::less<>> device_ids;
  std::map<std::string, int, std::less<>> channel_labels;
  std::set<std::pair<DeviceId, DeviceId>> link_pairs;

  int ChannelLabel(std::string_view name) {
    const auto it = channel_labels.find(name);
    if (it != channel_labels.end()) return it->second;
    const int label = static_cast<int>(channel_labels.size());
    channel_labels.emplace(std::string(name), label);
    return label;
  }
};

// Caps + duplicate-name guard applied before a device is admitted.
Status CheckAddDevice(Builder* b, DeviceSpec device,
                      const ClusterLimits& limits) {
  if (b->device_ids.count(device.name) != 0) {
    return Status::Error(ErrorCode::kDuplicateOp,
                         "device " + Quote(device.name) +
                             " already declared");
  }
  if (b->cluster.num_devices() >= limits.max_devices) {
    return Status::Error(ErrorCode::kResourceLimit,
                         "cluster exceeds the " +
                             std::to_string(limits.max_devices) +
                             "-device limit");
  }
  std::string name = device.name;
  const DeviceId id = b->cluster.AddDevice(std::move(device));
  b->device_ids.emplace(std::move(name), id);
  return Status::Ok();
}

// Shared by both parsers once endpoints resolve to valid ids; handles
// the bidir expansion so duplicate detection sees both directions.
Status CheckAddLink(Builder* b, DeviceId src, DeviceId dst, LinkSpec link,
                    int channel_label, bool bidir) {
  const auto& cluster = b->cluster;
  if (src == dst) {
    return Status::Error(ErrorCode::kCycle, "self link on device " +
                                                Quote(cluster.device(src).name));
  }
  const int directions = bidir ? 2 : 1;
  for (int k = 0; k < directions; ++k) {
    const DeviceId s = k == 0 ? src : dst;
    const DeviceId d = k == 0 ? dst : src;
    if (!b->link_pairs.insert({s, d}).second) {
      return Status::Error(ErrorCode::kDuplicateEdge,
                           "duplicate link " +
                               Quote(cluster.device(s).name) + " -> " +
                               Quote(cluster.device(d).name));
    }
    b->cluster.SetLink(s, d, link);
    if (channel_label >= 0) b->cluster.SetLinkChannel(s, d, channel_label);
  }
  return Status::Ok();
}

// A device kind name: "cpu" or "gpu"; false for anything else.
bool ParseKind(std::string_view name, DeviceKind* kind) {
  if (name != "cpu" && name != "gpu") return false;
  *kind = name == "cpu" ? DeviceKind::kCPU : DeviceKind::kGPU;
  return true;
}

// A link tier's `bw=`/`lat=` attribute, on `link` and `default_link`
// lines alike (see LineReader::NumberAttr).
bool LinkAttr(const LineReader& reader, const Token& tok, LinkSpec* link,
              Status* status) {
  return reader.NumberAttr(tok, "bw", Sign::kPositive, &link->bandwidth_gbps,
                           status) ||
         reader.NumberAttr(tok, "lat", Sign::kNonNegative, &link->latency_us,
                           status);
}

StatusOr<ClusterSpec> ParseText(std::istream& in,
                                const ClusterIngestOptions& opts) {
  Builder b;
  LineReader reader(in, opts.source_name);
  bool saw_default_link = false;
  while (reader.Next()) {
    const std::vector<Token>& toks = reader.tokens();
    if (toks[0].text == "device") {
      if (toks.size() < 3) {
        return reader.Error(
            ErrorCode::kSyntax,
            "device line needs: device <name> <cpu|gpu> [attrs]", toks[0]);
      }
      DeviceSpec device;
      device.name = std::string(toks[1].text);
      if (!ParseKind(toks[2].text, &device.kind)) {
        return reader.Error(ErrorCode::kSyntax,
                            "device kind must be 'cpu' or 'gpu', got " +
                                Quote(toks[2].text),
                            toks[2]);
      }
      for (std::size_t t = 3; t < toks.size(); ++t) {
        const Token& tok = toks[t];
        Status status;
        if (!reader.NumberAttr(tok, "gflops", Sign::kPositive, &device.gflops,
                               &status) &&
            !reader.NumberAttr(tok, "mem_bw", Sign::kPositive,
                               &device.mem_bw_gbps, &status) &&
            !reader.NumberAttr(tok, "overhead", Sign::kNonNegative,
                               &device.launch_overhead_us, &status) &&
            !reader.NumberAttr(tok, "mem", Sign::kNonNegative,
                               &device.memory_bytes, &status)) {
          status = reader.Unknown("device attribute", tok);
        }
        if (!status.ok()) return status;
      }
      Status status = CheckAddDevice(&b, std::move(device), opts.limits);
      if (!status.ok()) return reader.At(std::move(status), toks[1]);
    } else if (toks[0].text == "default_link") {
      if (saw_default_link) {
        return reader.Error(ErrorCode::kSyntax,
                            "duplicate default_link directive", toks[0]);
      }
      LinkSpec link;
      for (std::size_t t = 1; t < toks.size(); ++t) {
        Status status;
        if (!LinkAttr(reader, toks[t], &link, &status)) {
          status = reader.Unknown("default_link attribute", toks[t]);
        }
        if (!status.ok()) return status;
      }
      b.cluster.SetDefaultLink(link);
      saw_default_link = true;
    } else if (toks[0].text == "link") {
      if (toks.size() < 3) {
        return reader.Error(ErrorCode::kSyntax,
                            "link line needs: link <src> <dst> [bw=] [lat=] "
                            "[chan=] [bidir]",
                            toks[0]);
      }
      DeviceId ends[2] = {-1, -1};
      for (int k = 0; k < 2; ++k) {
        const Token& end = toks[1 + static_cast<std::size_t>(k)];
        const auto it = b.device_ids.find(end.text);
        if (it == b.device_ids.end()) {
          return reader.Error(ErrorCode::kDanglingRef,
                              "unknown device " + Quote(end.text), end);
        }
        ends[k] = it->second;
      }
      LinkSpec link;
      int channel_label = -1;
      bool bidir = false;
      for (std::size_t t = 3; t < toks.size(); ++t) {
        const Token& tok = toks[t];
        Token value;
        Status status;
        if (tok.text == "bidir") {
          bidir = true;
        } else if (graph::KeyValue(tok, "chan", &value)) {
          if (value.text.empty()) {
            status = reader.Error(ErrorCode::kSyntax, "empty channel label",
                                  value);
          } else {
            channel_label = b.ChannelLabel(value.text);
          }
        } else if (!LinkAttr(reader, tok, &link, &status)) {
          status = reader.Unknown("link attribute", tok);
        }
        if (!status.ok()) return status;
      }
      Status status =
          CheckAddLink(&b, ends[0], ends[1], link, channel_label, bidir);
      if (!status.ok()) return reader.At(std::move(status), toks[1]);
    } else {
      return reader.Unknown("directive", toks[0]);
    }
  }
  Status status = reader.Finish();
  if (!status.ok()) return status;
  status = b.cluster.Validate();
  if (!status.ok()) return status.At(opts.source_name);
  return std::move(b.cluster);
}

StatusOr<ClusterSpec> ParseJson(const std::string& text,
                                const ClusterIngestOptions& opts) {
  namespace json = support::json;
  const std::string& src_name = opts.source_name;
  json::Value root;
  const json::Value* jdevices = nullptr;
  const json::Value* jlinks = nullptr;
  Status status = graph::ParseJsonObject(text, src_name, &root);
  if (status.ok()) {
    status = graph::RequireArray(root, "devices", src_name, &jdevices);
  }
  if (status.ok()) {
    status = graph::RequireArray(root, "links", src_name, &jlinks);
  }
  if (!status.ok()) return status;

  Builder b;
  for (std::size_t i = 0; i < jdevices->items().size(); ++i) {
    JsonRecord rec(jdevices->items()[i], "devices", i, src_name);
    DeviceSpec device;
    const json::Value* name =
        rec.Require("name", graph::IsNonEmptyString, "missing or empty");
    const json::Value* kind = rec.Require("kind", graph::IsString, "missing");
    if (kind != nullptr && !ParseKind(kind->string_value(), &device.kind)) {
      rec.Fail(ErrorCode::kSyntax,
               ": \"kind\" must be \"cpu\" or \"gpu\", got " +
                   Quote(kind->string_value()));
    }
    rec.Number("gflops", Sign::kPositive, &device.gflops);
    rec.Number("mem_bw_gbps", Sign::kPositive, &device.mem_bw_gbps);
    rec.Number("launch_overhead_us", Sign::kNonNegative,
               &device.launch_overhead_us);
    rec.Integer("memory_bytes", 0, INT64_MAX, &device.memory_bytes);
    if (!rec.ok()) return rec.status();
    device.name = name->string_value();
    status = CheckAddDevice(&b, std::move(device), opts.limits);
    if (!status.ok()) return rec.Wrap(status);
  }

  const json::Value* jdefault = root.Find("default_link");
  if (jdefault != nullptr) {
    JsonRecord rec(*jdefault, "default_link", JsonRecord::kField, src_name);
    LinkSpec link;
    rec.Number("bandwidth_gbps", Sign::kPositive, &link.bandwidth_gbps);
    rec.Number("latency_us", Sign::kNonNegative, &link.latency_us);
    if (!rec.ok()) return rec.status();
    b.cluster.SetDefaultLink(link);
  }

  for (std::size_t i = 0; i < jlinks->items().size(); ++i) {
    JsonRecord rec(jlinks->items()[i], "links", i, src_name);
    DeviceId ends[2] = {-1, -1};
    const char* keys[2] = {"src", "dst"};
    for (int k = 0; k < 2; ++k) {
      const json::Value* v =
          rec.Require(keys[k], graph::IsString, "missing or non-string");
      if (v == nullptr) break;
      const auto it = b.device_ids.find(v->string_value());
      if (it == b.device_ids.end()) {
        rec.Fail(ErrorCode::kDanglingRef,
                 std::string(": \"") + keys[k] + "\" " +
                     Quote(v->string_value()) + " names no declared device");
      } else {
        ends[k] = it->second;
      }
    }
    LinkSpec link;
    rec.Number("bandwidth_gbps", Sign::kPositive, &link.bandwidth_gbps);
    rec.Number("latency_us", Sign::kNonNegative, &link.latency_us);
    const json::Value* chan =
        rec.Optional("channel", graph::IsNonEmptyString, "non-string or empty");
    bool bidir = false;
    rec.Bool("bidir", &bidir);
    if (!rec.ok()) return rec.status();
    const int channel_label =
        chan != nullptr ? b.ChannelLabel(chan->string_value()) : -1;
    status = CheckAddLink(&b, ends[0], ends[1], link, channel_label, bidir);
    if (!status.ok()) return rec.Wrap(status);
  }
  status = b.cluster.Validate();
  if (!status.ok()) return status.At(opts.source_name);
  return std::move(b.cluster);
}

}  // namespace

StatusOr<ClusterSpec> ParseTextCluster(const std::string& text,
                                       const ClusterIngestOptions& opts) {
  std::istringstream in(text);
  return graph::NoThrow(opts.source_name,
                        [&] { return ParseText(in, opts); });
}

StatusOr<ClusterSpec> ClusterFromJson(const std::string& text,
                                      const ClusterIngestOptions& opts) {
  return graph::NoThrow(opts.source_name,
                        [&] { return ParseJson(text, opts); });
}

StatusOr<ClusterSpec> ImportClusterFile(const std::string& path,
                                        const ClusterIngestOptions& opts) {
  ClusterIngestOptions file_opts = opts;
  file_opts.source_name = path;
  return graph::ImportFile(
      path, "cluster",
      [&](std::istream& in) { return ParseText(in, file_opts); },
      [&](const std::string& text) { return ParseJson(text, file_opts); });
}

StatusOr<ClusterSpec> ResolveCluster(const std::string& spec,
                                     const ClusterIngestOptions& opts) {
  if (spec.empty() || spec == "default") return MakeDefaultCluster();
  if (spec == "2node8") return MakeTwoNodeNvlinkIbCluster();
  if (spec == "mixed") return MakeMixedSpeedCluster();
  return ImportClusterFile(spec, opts);
}

}  // namespace eagle::sim
