// Frozen pre-optimization discrete-event simulator, kept verbatim as the
// baseline for bench_micro (naive-vs-workspace steps/sec in one binary)
// and as an equality oracle in tests: on any real graph the workspace
// simulator must reproduce this implementation's StepResult exactly.
//
// Two historical details are preserved on purpose:
//   - every run allocates its scratch (vectors, priority queues, two
//     unordered_maps) from the heap, which is the overhead the pooled
//     SimWorkspace removes;
//   - transfer dedup keys on a lossy 32-bit hash of the byte size, so two
//     same-(producer, dst) transfers whose sizes collide under the hash
//     (e.g. 1000 and 2971216073 bytes) are wrongly merged. The workspace
//     simulator keys exactly; tests/test_sim.cpp pins the divergence.
//
// Deliberately not part of eagle_sim: only benches and tests link
// eagle_sim_naive.
#pragma once

#include <vector>

#include "graph/op_graph.h"
#include "sim/device.h"
#include "sim/fault.h"
#include "sim/placement.h"
#include "sim/simulator.h"

namespace eagle::sim::naive {

// Downstream critical-path length per op, identical to what the
// ExecutionSimulator constructor caches. Exposed so bench_micro can
// precompute it outside the timed region — the historical simulator paid
// this once per construction, not once per run, and the baseline should
// not be charged for work the optimized path never did either.
std::vector<int> CriticalPriorities(const graph::OpGraph& graph);

// One step under `placement`, exactly as ExecutionSimulator::RunInternal
// computed it before the workspace refactor.
StepResult RunReference(const graph::OpGraph& graph,
                        const ClusterSpec& cluster,
                        const std::vector<int>& critical_priority,
                        const Placement& placement,
                        const FaultDraw* faults = nullptr,
                        bool record_schedule = false);

// Convenience overload recomputing the priorities per call.
StepResult RunReference(const graph::OpGraph& graph,
                        const ClusterSpec& cluster,
                        const Placement& placement,
                        const FaultDraw* faults = nullptr,
                        bool record_schedule = false);

}  // namespace eagle::sim::naive
