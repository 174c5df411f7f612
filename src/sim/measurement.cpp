#include "sim/measurement.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.h"

namespace eagle::sim {

double NoiseFactor(double noise_stddev, support::Rng& rng) {
  return std::clamp(1.0 + noise_stddev * rng.NextGaussian(), 0.5, 2.0);
}

std::string EvalResult::ToString() const {
  std::ostringstream os;
  if (failed) {
    os << "FAILED (" << attempts << " attempts)";
  } else if (!valid) {
    os << "INVALID (OOM)";
  } else {
    os << per_step_seconds << " s/step";
  }
  os << " [cost " << measurement_cost_seconds << " s]";
  return os.str();
}

MeasurementSession::MeasurementSession(const graph::OpGraph& graph,
                                       const ClusterSpec& cluster,
                                       MeasurementOptions options)
    : simulator_(graph, cluster), options_(options) {
  EAGLE_CHECK(options_.total_steps > options_.warmup_steps);
  EAGLE_CHECK(options_.warmup_steps >= 0);
  EAGLE_CHECK(options_.noise_stddev >= 0.0);
}

EvalResult MeasurementSession::Measure(const Placement& placement,
                                       const FaultDraw* faults,
                                       support::Rng* rng) const {
  EvalResult result;
  const StepResult step = simulator_.Run(placement, faults);
  result.step = step;

  if (step.oom) {
    // An invalid placement still costs the session setup before the
    // framework aborts with the OOM error.
    result.valid = false;
    result.measurement_cost_seconds = options_.session_overhead_seconds;
    return result;
  }

  result.valid = true;
  result.true_per_step_seconds = step.step_seconds;

  // Warm-up: the first step additionally places every parameter tensor.
  const double warmup_extra =
      simulator_.ParamTransferSeconds(placement, faults);
  result.per_step_seconds = MeasuredPerStep(step.step_seconds, rng);
  result.measurement_cost_seconds =
      options_.session_overhead_seconds + warmup_extra +
      options_.total_steps * step.step_seconds;
  return result;
}

double MeasurementSession::MeasuredPerStep(double step_seconds,
                                           support::Rng* rng) const {
  const int measured = options_.total_steps - options_.warmup_steps;
  double sum = 0.0;
  for (int i = 0; i < measured; ++i) {
    double s = step_seconds;
    if (rng != nullptr && options_.noise_stddev > 0.0) {
      s *= NoiseFactor(options_.noise_stddev, *rng);
    }
    sum += s;
  }
  return sum / measured;
}

EvalResult MeasurementSession::Evaluate(const Placement& placement,
                                        support::Rng* rng) const {
  return Measure(placement, nullptr, rng);
}

EvalResult MeasurementSession::EvaluateWithFaults(const Placement& placement,
                                                  const FaultDraw& faults,
                                                  support::Rng* rng) const {
  if (faults.session_crash || faults.HitsDownDevice(placement)) {
    // The session dies during setup / on first contact with the dead
    // device; the attempt still consumed the setup time.
    EvalResult result;
    result.failed = true;
    result.measurement_cost_seconds = options_.session_overhead_seconds;
    return result;
  }
  EvalResult result = Measure(placement, &faults, rng);
  // The degraded machine's number is what the agent observes; the healthy
  // time is the caller's to fill from a fault-free evaluation.
  result.true_per_step_seconds = 0.0;
  return result;
}

}  // namespace eagle::sim
