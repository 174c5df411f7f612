#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "support/atomic_file.h"
#include "support/json.h"
#include "support/stopwatch.h"

namespace eagle::support::metrics {

namespace {

// One flat registry behind one mutex. Handles are unique_ptr-backed so
// the pointers Get* hands out stay stable across rehashes.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;

  // Span buffer (guarded by the same mutex; span recording is rare
  // relative to counter traffic, which never touches the lock).
  std::vector<SpanRecord> spans;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives all users
  return *registry;
}

std::atomic<bool> g_profiling{false};

// Span-buffer cap: at ~64 bytes a record this bounds the profiler to a
// few hundred MB even on week-long runs; overflow is counted, not grown.
constexpr std::size_t kMaxSpans = 1u << 21;

}  // namespace

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double>* buckets = [] {
    auto* b = new std::vector<double>();
    for (double decade = 1e-6; decade < 1e3; decade *= 10.0) {
      b->push_back(decade);
      b->push_back(2.0 * decade);
      b->push_back(5.0 * decade);
    }
    return b;
  }();
  return *buckets;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

HistogramSnapshot Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts = counts_;
  snapshot.count = count_;
  snapshot.sum = sum_;
  snapshot.min = min_;
  snapshot.max = max_;
  return snapshot;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) < rank) continue;
    // Linear interpolation inside the bucket [lo, hi].
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : max;
    double value = hi;
    if (counts[i] > 0) {
      const double into =
          (rank - static_cast<double>(seen - counts[i])) /
          static_cast<double>(counts[i]);
      value = lo + (hi - lo) * into;
    }
    return std::clamp(value, min, max);
  }
  return max;
}

Counter* GetCounter(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto& slot = registry.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* GetGauge(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto& slot = registry.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* GetHistogram(const std::string& name,
                        const std::vector<double>& bounds) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto& slot = registry.histograms[name];
  if (slot == nullptr) slot.reset(new Histogram(bounds));
  return slot.get();
}

Snapshot TakeSnapshot() {
  Registry& registry = GetRegistry();
  Snapshot snapshot;
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& [name, counter] : registry.counters) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : registry.gauges) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : registry.histograms) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

Snapshot Snapshot::DeltaSince(const Snapshot& earlier) const {
  Snapshot delta;
  for (const auto& [name, value] : counters) {
    const auto it = earlier.counters.find(name);
    const std::int64_t before = it == earlier.counters.end() ? 0 : it->second;
    if (value != before) delta.counters[name] = value - before;
  }
  delta.gauges = gauges;
  for (const auto& [name, hist] : histograms) {
    const auto it = earlier.histograms.find(name);
    HistogramSnapshot d = hist;
    if (it != earlier.histograms.end()) {
      const HistogramSnapshot& before = it->second;
      d.count -= before.count;
      d.sum -= before.sum;
      if (before.counts.size() == d.counts.size()) {
        for (std::size_t i = 0; i < d.counts.size(); ++i) {
          d.counts[i] -= before.counts[i];
        }
      }
    }
    if (d.count != 0) delta.histograms[name] = std::move(d);
  }
  return delta;
}

void ResetForTest() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.counters.clear();
  registry.gauges.clear();
  registry.histograms.clear();
  registry.spans.clear();
}

// ---------------------------------------------------------------------------
// Profiling.

double NowSeconds() {
  static const Stopwatch* epoch = new Stopwatch();
  return epoch->ElapsedSeconds();
}

int CurrentThreadTag() {
  static std::atomic<int> next_tag{0};
  thread_local const int tag = next_tag.fetch_add(1);
  return tag;
}

void EnableProfiling(bool enabled) { g_profiling.store(enabled); }
bool ProfilingEnabled() { return g_profiling.load(); }

std::vector<SpanRecord> SnapshotSpans() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.spans;
}

Histogram* SpanHistogram(const char* name) {
  return GetHistogram(std::string("span.") + name);
}

ScopedSpan::ScopedSpan(const char* name, Histogram* histogram)
    : name_(name), histogram_(histogram), start_seconds_(NowSeconds()) {}

ScopedSpan::~ScopedSpan() {
  const double end = NowSeconds();
  const double duration = end - start_seconds_;
  histogram_->Observe(duration);
  if (!ProfilingEnabled()) return;
  bool dropped = false;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    if (registry.spans.size() >= kMaxSpans) {
      dropped = true;
    } else {
      registry.spans.push_back(
          SpanRecord{name_, CurrentThreadTag(), start_seconds_, duration});
    }
  }
  if (dropped) GetCounter("metrics.spans_dropped")->Increment();
}

std::string SpansToChromeTrace(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  // Process metadata so Perfetto labels the rows.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
     << "\"args\":{\"name\":\"eagle trainer\"}}";
  for (const SpanRecord& span : spans) {
    const std::size_t dot = span.name.find('.');
    const std::string category =
        dot == std::string::npos ? span.name : span.name.substr(0, dot);
    os << ",{\"name\":\"" << json::Escape(span.name) << "\",\"cat\":\""
       << json::Escape(category) << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
       << span.thread_tag << ",\"ts\":" << span.start_seconds * 1e6
       << ",\"dur\":" << span.duration_seconds * 1e6 << "}";
  }
  os << "]}";
  return os.str();
}

bool WriteProfile(const std::string& path) {
  const std::string trace = SpansToChromeTrace(SnapshotSpans());
  return WriteFileAtomic(path, [&](std::ostream& out) -> bool {
    out << trace;
    return static_cast<bool>(out);
  });
}

}  // namespace eagle::support::metrics
