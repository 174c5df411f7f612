// Schedule auditor: independent verification of a recorded simulator
// schedule against the discrete-event invariants the whole RL signal
// rests on (the paper's reward is the simulated per-step time, §IV-C).
//
// AuditSchedule re-derives, from the recorded op/transfer timeline alone:
//   - per-device event-time monotonicity (a device runs one op at a time,
//     times never regress),
//   - precedence (no op starts before every predecessor has finished and
//     every inbound cross-device transfer has arrived),
//   - transfer channel ordering (transfers sharing a contention channel
//     serialize; a transfer never departs before its producer finishes),
//   - memory-accounting conservation (the liveness replay reproduces the
//     reported per-device param/peak bytes exactly, and the OOM flag is
//     consistent with device capacities).
//
// In EAGLE_AUDIT builds (default for Debug and sanitizer configs — see
// the top-level CMakeLists) ExecutionSimulator::Run() records its own
// schedule, audits it after every simulated execution, and aborts via
// EAGLE_CHECK on any violation, so a scheduling bug can never silently
// corrupt a training run. The auditor itself is always compiled so tests
// can drive it against hand-built broken schedules.
#pragma once

#include <string>
#include <vector>

#include "graph/op_graph.h"
#include "sim/device.h"
#include "sim/placement.h"
#include "sim/simulator.h"

namespace eagle::sim {

struct AuditViolation {
  std::string invariant;  // "device-monotonic", "precedence", ...
  std::string detail;
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  // Violations beyond the reporting cap (the count still reflects them).
  int dropped = 0;

  bool ok() const { return violations.empty() && dropped == 0; }
  std::string ToString() const;
};

// Audits `result` (which must carry a recorded schedule — run the
// simulator with SimulatorOptions::record_schedule) against `graph`,
// `cluster` and the normalized `placement` it was produced from.
AuditReport AuditSchedule(const StepResult& result,
                          const graph::OpGraph& graph,
                          const ClusterSpec& cluster,
                          const Placement& placement);

}  // namespace eagle::sim
