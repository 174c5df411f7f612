// Fault injection for the measurement environment.
//
// The paper's agents train against a real 4×P100 machine where sessions
// crash, devices stall and invalid placements OOM; noisy, failure-prone
// runtime measurement dominates training cost (Mirhoseini et al. 2017,
// Placeto make the same observation). The deterministic simulator hides
// all of that, so FaultInjector reintroduces it in a seed-deterministic
// way: each measurement *attempt* draws a FaultDraw that can
//
//   - crash the measurement session outright (transient failure),
//   - take a device hard-down (any placement touching it fails),
//   - slow a device's compute by a straggler factor,
//   - degrade a link channel's effective bandwidth/latency.
//
// Perf faults (stragglers, degraded links) complete the measurement but
// report inflated times; hard faults (crash, device-down) fail the
// attempt and are retried by the environment's support::RetryPolicy.
#pragma once

#include <string>
#include <vector>

#include "sim/device.h"
#include "sim/placement.h"
#include "support/rng.h"

namespace eagle::sim {

// Per-attempt fault rates. All-zero (the default) disables injection.
struct FaultProfile {
  // P(the measurement session crashes before producing a number).
  double transient_failure_rate = 0.0;
  // P(a given GPU is hard-down for this attempt).
  double device_down_rate = 0.0;
  // P(a given GPU computes slower by straggler_slowdown this attempt).
  double straggler_rate = 0.0;
  double straggler_slowdown = 2.0;
  // P(a given link channel is degraded by degraded_link_factor).
  double degraded_link_rate = 0.0;
  double degraded_link_factor = 3.0;
  // Seed of the environment's dedicated fault stream.
  std::uint64_t seed = 1234;

  bool enabled() const {
    return transient_failure_rate > 0.0 || device_down_rate > 0.0 ||
           straggler_rate > 0.0 || degraded_link_rate > 0.0;
  }

  std::string ToString() const;
};

// Parses "crash=0.1,down=0.02,straggler=0.2,slowdown=3,link=0.1,
// linkfactor=4,seed=9" (any subset, any order). A bare number is
// shorthand for "crash=x,down=x/4,straggler=x,link=x". Rates are numbers
// in [0, 1], slowdown and linkfactor finite numbers >= 1, and the seed a
// non-negative integer, each one whole token. An unknown key or a bad
// value throws std::invalid_argument with a one-line message naming it.
FaultProfile FaultProfileFromString(const std::string& text);

// One attempt's realized faults. Scale vectors are sized to the cluster
// (per device / per link channel) with 1.0 == healthy.
struct FaultDraw {
  bool session_crash = false;
  std::vector<bool> device_down;
  std::vector<double> device_compute_scale;
  std::vector<double> link_scale;

  // True when any compute/link scale differs from 1 (the measurement
  // completes but reports degraded times).
  bool HasPerfFaults() const;
  // True when the draw prevents the measurement from completing for a
  // placement that uses `down` devices.
  bool HitsDownDevice(const Placement& placement) const;

  std::string ToString(const ClusterSpec& cluster) const;
};

// Seed-deterministic fault model over a fixed cluster. Stateless: all
// randomness comes from the caller's Rng, so the environment can
// checkpoint/restore its fault stream for crash-safe training resume.
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, const ClusterSpec& cluster);

  // Draws the faults for one measurement attempt. CPU devices are exempt
  // from down/straggler faults (the host is what launches the session).
  FaultDraw Draw(support::Rng& rng) const;

  const FaultProfile& profile() const { return profile_; }

 private:
  FaultProfile profile_;
  std::vector<bool> device_is_gpu_;
  int num_link_channels_ = 0;
};

}  // namespace eagle::sim
