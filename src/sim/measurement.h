// MeasurementSession: the paper's placement-evaluation protocol (§IV-C).
//
// "We evaluate each placement sampled from the policy by running it for 15
//  steps ... discard the first 5 warm-up steps and average the per-step
//  time over the last 10."
//
// The simulator is deterministic, so the protocol's effect here is
// (a) the *virtual clock* cost a sample charges to the RL training budget
//     (session setup + parameter placement + 15 steps), which is what the
//     x-axes of Figs. 2 and 5–7 measure, and
// (b) optional multiplicative measurement noise on the reported per-step
//     time, mimicking real jitter the agents must average over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace eagle::sim {

struct MeasurementOptions {
  int total_steps = 15;
  int warmup_steps = 5;
  // Graph-rewrite + variable-init + session-startup cost per evaluated
  // placement. The paper reports ~1 minute to evaluate a 10-step NMT
  // placement; this constant reproduces that scale.
  double session_overhead_seconds = 20.0;
  // Relative std-dev of per-step measurement noise (0 disables).
  double noise_stddev = 0.01;
};

// Multiplicative measurement-noise factor. Clamped to [0.5, 2.0] so no
// noise_stddev can yield a non-positive (or absurd) per-step time — a
// real harness would reject such a reading as a failed measurement.
double NoiseFactor(double noise_stddev, support::Rng& rng);

struct EvalResult {
  bool valid = false;              // false == OOM (invalid placement)
  // True when the measurement never produced a number (session crash,
  // device down, or timeout on every retry). `valid` is false too; the
  // environment charges the invalid-placement penalty.
  bool failed = false;
  int attempts = 1;                // measurement attempts consumed
  double per_step_seconds = 0.0;   // average over measured steps (noisy)
  double true_per_step_seconds = 0.0;  // noiseless, for final reporting
  double measurement_cost_seconds = 0.0;  // virtual wall-clock consumed
  StepResult step;                 // details of the simulated step

  std::string ToString() const;
};

class MeasurementSession {
 public:
  MeasurementSession(const graph::OpGraph& graph, const ClusterSpec& cluster,
                     MeasurementOptions options = {});

  // Evaluates a (normalized) placement. `rng` drives measurement noise;
  // pass nullptr for a noiseless evaluation.
  EvalResult Evaluate(const Placement& placement,
                      support::Rng* rng = nullptr) const;

  // One measurement attempt under injected faults. A session crash or a
  // placement touching a down device returns failed=true after charging
  // the session setup; perf faults (stragglers, degraded links) complete
  // with degraded measured/cost times. true_per_step_seconds is NOT
  // filled here (it is the healthy machine's number — the environment
  // supplies it from the fault-free evaluation).
  EvalResult EvaluateWithFaults(const Placement& placement,
                                const FaultDraw& faults,
                                support::Rng* rng = nullptr) const;

  // Average reported per-step time over the measured (post-warm-up)
  // steps of a step that truly takes `step_seconds`; `rng` draws each
  // step's noise (nullptr: noiseless).
  double MeasuredPerStep(double step_seconds, support::Rng* rng) const;

  const ExecutionSimulator& simulator() const { return simulator_; }
  const MeasurementOptions& options() const { return options_; }

 private:
  EvalResult Measure(const Placement& placement, const FaultDraw* faults,
                     support::Rng* rng) const;

  ExecutionSimulator simulator_;
  MeasurementOptions options_;
};

}  // namespace eagle::sim
