// Liveness-based device memory accounting.
//
// Each tensor occupies its producer's device from production until its
// last local consumer finishes, and every *remote* consumer's device from
// transfer arrival until that device's last consumer of it finishes — so a
// training graph (whose backward ops consume forward activations late)
// naturally holds all forward activations at the backward frontier, which
// is exactly what makes GNMT-batch-256 / BERT-Base blow past a 12 GB card.
//
// Peak rule: an interval [start, end) holds its bytes at every time t with
// start <= t < end (zero-length intervals hold nothing), and a device's
// activation peak is the largest such sum over t. Equivalently, at one
// timestamp every free lands before every allocation.
#pragma once

#include <cstdint>
#include <vector>

namespace eagle::sim {

struct LiveInterval {
  double start = 0.0;
  double end = 0.0;
  std::int64_t bytes = 0;
};

// Peak of the sum of overlapping intervals: a sort-based sweep line over
// (time, ±bytes) events. The simulator computes the same peak without a
// sort (simulator.cpp); this is the reference form the frozen simulator
// (sim/naive_ref.h) and the schedule auditor (sim/audit.h) replay.
std::int64_t PeakLiveBytes(std::vector<LiveInterval> intervals);

// Allocator fragmentation + cuDNN workspace multiplier on activations: a
// device's peak is its resident params + this × its activation peak.
inline constexpr double kActivationOverhead = 1.25;

}  // namespace eagle::sim
