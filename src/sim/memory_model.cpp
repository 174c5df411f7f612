#include "sim/memory_model.h"

#include <algorithm>

namespace eagle::sim {

namespace {

// One endpoint of a live interval in the sweep-line scan.
struct MemEvent {
  double time = 0.0;
  std::int64_t delta = 0;
};

}  // namespace

std::int64_t PeakLiveBytes(std::vector<LiveInterval> intervals) {
  std::vector<MemEvent> events;
  events.reserve(intervals.size() * 2);
  for (const auto& iv : intervals) {
    if (iv.bytes <= 0 || iv.end <= iv.start) continue;
    events.push_back({iv.start, iv.bytes});
    events.push_back({iv.end, -iv.bytes});
  }
  std::sort(events.begin(), events.end(),
            [](const MemEvent& a, const MemEvent& b) {
              // Free before allocate at identical timestamps (conservative
              // would be the reverse; frameworks reuse buffers within a
              // step, so free-first matches observed footprints better).
              return a.time < b.time ||
                     (a.time == b.time && a.delta < b.delta);
            });
  std::int64_t live = 0;
  std::int64_t peak = 0;
  for (const auto& e : events) {
    live += e.delta;
    peak = std::max(peak, live);
  }
  return peak;
}

}  // namespace eagle::sim
