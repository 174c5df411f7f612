// The agent/environment interface layer.
//
// These are the contracts the concrete agents in src/core implement and
// the training loop in src/rl consumes. They live in core — not rl — so
// the dependency arrow matches the layer DAG (support → … → core → rl,
// enforced by eagle-lint LY01): rl's trainer depends on these interfaces,
// and core's agents implement them, without core ever including an rl
// header. src/rl, bench/ and tests/ include this header and name the
// core:: types directly.
//
// Device placement is a one-shot (contextual-bandit-like) RL problem: one
// decision (grouping + per-group devices), one reward (negative square
// root of the measured per-step time, Eq. 4). A Sample records the actions
// and the log-probability under the policy that generated them, so PPO can
// form importance ratios when re-scoring under updated parameters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/op_graph.h"
#include "nn/layers.h"
#include "nn/tape.h"
#include "sim/measurement.h"
#include "sim/placement.h"
#include "support/byte_io.h"
#include "support/rng.h"

namespace eagle::core {

struct Sample {
  // Actions: grouping over ops (empty when the grouper is fixed/heuristic:
  // the agent holds that grouping) and a device per group.
  graph::Grouping grouping;
  std::vector<std::int32_t> group_devices;

  double logp = 0.0;       // log π_old(a|s) at sampling time
  // Number of elementary decisions behind `logp` (groups placed, plus the
  // grouper's weighted contribution). PPO normalizes its importance
  // log-ratio by this so the clip region stays meaningful for joint
  // policies over hundreds of categoricals.
  int num_decisions = 1;
  // Global sample index, doubling as the child-RNG stream number: the
  // trainer evaluates sample i with rng.Split(eval_stream) so measurement
  // noise is identical whether the minibatch runs serially or on a
  // thread pool (core::EvalService).
  std::uint64_t eval_stream = 0;
  bool valid = false;      // environment verdict (false == OOM)
  double per_step_seconds = 0.0;  // measured (noisy) per-step time
  double reward = 0.0;
  double advantage = 0.0;
};

// Agents expose this interface to the training algorithms: sampling builds
// a decision under current parameters; scoring rebuilds the log-prob (and
// entropy) of a *stored* decision under current parameters on a fresh tape
// so that REINFORCE/PPO/CE losses can be backpropagated.
class PolicyAgent {
 public:
  virtual ~PolicyAgent() = default;

  virtual Sample SampleDecision(support::Rng& rng) = 0;

  struct Score {
    nn::Var logp;     // 1×1
    nn::Var entropy;  // 1×1 (mean policy entropy, for the bonus term)
  };
  virtual Score ScoreDecision(nn::Tape& tape, const Sample& sample) = 0;
  // Scores a batch of stored decisions on one tape: one Score per sample,
  // in order, each bit for bit ScoreDecision's. An agent may batch the
  // work, which changes only the order in which the samples' gradients
  // sum. The default scores the samples one by one.
  virtual std::vector<Score> ScoreDecisions(
      nn::Tape& tape, std::span<const Sample* const> samples) {
    std::vector<Score> scores;
    scores.reserve(samples.size());
    for (const Sample* sample : samples) {
      scores.push_back(ScoreDecision(tape, *sample));
    }
    return scores;
  }

  // Expands a sample's actions into a normalized op-level placement.
  virtual sim::Placement ToPlacement(const Sample& sample) const = 0;

  virtual nn::ParamStore& params() = 0;
  virtual const char* name() const = 0;
};

// Environment abstraction implemented by core::PlacementEnvironment.
class Environment {
 public:
  virtual ~Environment() = default;
  // Evaluates a normalized placement; rng drives measurement noise.
  virtual sim::EvalResult Evaluate(const sim::Placement& placement,
                                   support::Rng* rng) = 0;
  // Penalty per-step time charged to invalid placements.
  virtual double InvalidPenaltySeconds() const = 0;
  // Mutable environment state (fault stream, counters) captured into /
  // restored from training checkpoints so a resumed run replays
  // bit-compatibly. Stateless environments can keep the no-op default.
  virtual void SaveState(support::ByteWriter& out) const { (void)out; }
  virtual void LoadState(support::ByteReader& in) { (void)in; }
};

// Batch evaluation abstraction implemented by core::EvalService: the
// trainer hands over a full round of placements plus one private RNG per
// sample and gets results back in submission order. Implementations must
// be bit-identical to evaluating the placements one by one with
// Environment::Evaluate — thread count may change wall-clock time only.
class BatchEvaluator {
 public:
  virtual ~BatchEvaluator() = default;
  // Evaluates placements[i] with rngs[i]; returns one result per
  // placement, in the same order.
  virtual std::vector<sim::EvalResult> EvaluateBatch(
      const std::vector<sim::Placement>& placements,
      std::vector<support::Rng>& rngs) = 0;
};

}  // namespace eagle::core
