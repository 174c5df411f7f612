#include "sim/fault.h"

#include <sstream>
#include <stdexcept>

#include "graph/record_reader.h"
#include "support/args.h"
#include "support/check.h"

namespace eagle::sim {

namespace {

// Flag values are untrusted input: every value is one whole, finite
// token (graph/record_reader.h), and a bad one is a one-line
// std::invalid_argument. An empty key is the bare-rate shorthand.
[[noreturn]] void BadValue(const std::string& key, const std::string& value,
                           const char* expected) {
  throw std::invalid_argument(
      (key.empty() ? "bad fault rate " + graph::Quote(value)
                   : "bad fault value " + graph::Quote(value) + " for " +
                         key) +
      " (expected " + expected + ")");
}

// A per-attempt probability.
double ParseRate(const std::string& key, const std::string& value) {
  double v = 0.0;
  if (!graph::ParseDouble(value, &v) || v < 0.0 || v > 1.0) {
    BadValue(key, value, "a number in [0, 1]");
  }
  return v;
}

// A slowdown factor, 1 meaning healthy.
double ParseFactor(const std::string& key, const std::string& value) {
  double v = 0.0;
  if (!graph::ParseDouble(value, &v) || v < 1.0) {
    BadValue(key, value, "a finite number >= 1");
  }
  return v;
}

std::uint64_t ParseSeed(const std::string& value) {
  std::int64_t v = 0;
  if (!graph::ParseInt64(value, &v) || v < 0) {
    BadValue("seed", value, "a non-negative integer below 2^63");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::string FaultProfile::ToString() const {
  std::ostringstream os;
  os << "crash=" << transient_failure_rate << " down=" << device_down_rate
     << " straggler=" << straggler_rate << "x" << straggler_slowdown
     << " link=" << degraded_link_rate << "x" << degraded_link_factor
     << " seed=" << seed;
  return os.str();
}

FaultProfile FaultProfileFromString(const std::string& text) {
  FaultProfile profile;
  for (const std::string& item : support::SplitList(text)) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      // Bare rate: a uniform profile at that severity.
      const double rate = ParseRate("", item);
      profile.transient_failure_rate = rate;
      profile.device_down_rate = rate / 4.0;
      profile.straggler_rate = rate;
      profile.degraded_link_rate = rate;
      continue;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "crash") {
      profile.transient_failure_rate = ParseRate(key, value);
    } else if (key == "down") {
      profile.device_down_rate = ParseRate(key, value);
    } else if (key == "straggler") {
      profile.straggler_rate = ParseRate(key, value);
    } else if (key == "slowdown") {
      profile.straggler_slowdown = ParseFactor(key, value);
    } else if (key == "link") {
      profile.degraded_link_rate = ParseRate(key, value);
    } else if (key == "linkfactor") {
      profile.degraded_link_factor = ParseFactor(key, value);
    } else if (key == "seed") {
      profile.seed = ParseSeed(value);
    } else {
      throw std::invalid_argument(
          "unknown fault key " + graph::Quote(key) +
          " (expected crash, down, straggler, slowdown, link, linkfactor "
          "or seed)");
    }
  }
  // FaultInjector refuses this profile: no attempt could ever succeed.
  if (profile.transient_failure_rate >= 1.0 &&
      profile.device_down_rate >= 1.0) {
    throw std::invalid_argument(
        "fault profile fails every attempt (crash and down both 1)");
  }
  return profile;
}

bool FaultDraw::HasPerfFaults() const {
  for (double s : device_compute_scale) {
    if (s != 1.0) return true;
  }
  for (double s : link_scale) {
    if (s != 1.0) return true;
  }
  return false;
}

bool FaultDraw::HitsDownDevice(const Placement& placement) const {
  if (device_down.empty()) return false;
  for (DeviceId d : placement.devices()) {
    if (device_down[static_cast<std::size_t>(d)]) return true;
  }
  return false;
}

std::string FaultDraw::ToString(const ClusterSpec& cluster) const {
  std::ostringstream os;
  if (session_crash) os << "session-crash ";
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    if (!device_down.empty() && device_down[static_cast<std::size_t>(d)]) {
      os << cluster.device(d).name << "=DOWN ";
    } else if (!device_compute_scale.empty() &&
               device_compute_scale[static_cast<std::size_t>(d)] != 1.0) {
      os << cluster.device(d).name << "=x"
         << device_compute_scale[static_cast<std::size_t>(d)] << " ";
    }
  }
  int degraded_links = 0;
  for (double s : link_scale) {
    if (s != 1.0) ++degraded_links;
  }
  if (degraded_links > 0) os << degraded_links << " degraded link(s) ";
  std::string s = os.str();
  if (s.empty()) return "healthy";
  if (s.back() == ' ') s.pop_back();
  return s;
}

FaultInjector::FaultInjector(FaultProfile profile, const ClusterSpec& cluster)
    : profile_(profile), num_link_channels_(cluster.num_link_channels()) {
  EAGLE_CHECK_MSG(profile_.transient_failure_rate < 1.0 ||
                      profile_.device_down_rate < 1.0,
                  "fault profile fails every attempt unconditionally");
  EAGLE_CHECK(profile_.straggler_slowdown >= 1.0);
  EAGLE_CHECK(profile_.degraded_link_factor >= 1.0);
  device_is_gpu_.reserve(static_cast<std::size_t>(cluster.num_devices()));
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    device_is_gpu_.push_back(cluster.device(d).kind == DeviceKind::kGPU);
  }
}

FaultDraw FaultInjector::Draw(support::Rng& rng) const {
  FaultDraw draw;
  const std::size_t num_devices = device_is_gpu_.size();
  draw.device_down.assign(num_devices, false);
  draw.device_compute_scale.assign(num_devices, 1.0);
  draw.link_scale.assign(static_cast<std::size_t>(num_link_channels_), 1.0);
  if (!profile_.enabled()) return draw;

  // Fixed draw order (crash, per-device, per-link) keeps the stream
  // deterministic across profiles with the same enabled fault classes.
  draw.session_crash = profile_.transient_failure_rate > 0.0 &&
                       rng.NextDouble() < profile_.transient_failure_rate;
  for (std::size_t d = 0; d < num_devices; ++d) {
    if (!device_is_gpu_[d]) continue;
    if (profile_.device_down_rate > 0.0 &&
        rng.NextDouble() < profile_.device_down_rate) {
      draw.device_down[d] = true;
    }
    if (profile_.straggler_rate > 0.0 &&
        rng.NextDouble() < profile_.straggler_rate) {
      draw.device_compute_scale[d] = profile_.straggler_slowdown;
    }
  }
  if (profile_.degraded_link_rate > 0.0) {
    for (auto& s : draw.link_scale) {
      if (rng.NextDouble() < profile_.degraded_link_rate) {
        s = profile_.degraded_link_factor;
      }
    }
  }
  return draw;
}

}  // namespace eagle::sim
