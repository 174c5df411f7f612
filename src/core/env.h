// PlacementEnvironment: the environment the RL agents interact with.
//
// Wraps a benchmark graph + cluster + MeasurementSession, remembers every
// placement's noiseless evaluation (collision-checked by full device
// vector — see EvalCache), and supplies the invalid-placement penalty used
// by reward shaping.
//
// Robustness layer: when EnvironmentOptions::faults is enabled, every
// evaluation becomes a retry loop over fault-injected measurement
// attempts (sim::FaultInjector) governed by a support::RetryPolicy —
// session crashes, down devices and timed-out stragglers are retried
// with exponential backoff, every attempt and backoff wait charging the
// virtual clock; an evaluation that exhausts its retries degrades into
// the invalid-placement penalty instead of aborting training. Retry /
// failure counters are exposed for reporting, and the mutable fault
// stream serializes into training checkpoints for crash-safe resume.
//
// Concurrency: evaluation is split into a three-phase protocol so that
// core::EvalService can run the expensive middle phase on worker threads
// while the run stays bit-identical to a serial one:
//
//   1. PrepareEvaluation (serial, dispatch order) — splits a per-sample
//      child off the fault stream and claims the placement's slot in the
//      evaluation table: a placement already there (done, or in flight
//      earlier in the same batch) counts as a cache hit, and a done
//      entry hands its noiseless result to the ticket.
//   2. EvaluateTicket (any thread) — const: simulator runs, fault-
//      injected retry attempts and measurement noise touch only the
//      ticket's private RNGs; shared counters/table are never written.
//   3. CommitEvaluation (serial, submission order) — fills the ticket's
//      slot with the clean result and applies the counter deltas,
//      replaying exactly what an interleaved serial run would have done.
//
// Evaluate() is Prepare+Evaluate+Commit back to back, so serial callers,
// a 1-thread service and an N-thread service all advance the same
// streams in the same order.
#pragma once

#include <memory>
#include <mutex>

#include "core/eval_cache.h"
#include "core/policy.h"
#include "sim/fault.h"
#include "sim/measurement.h"
#include "support/retry.h"

namespace eagle::core {

struct EnvironmentOptions {
  sim::MeasurementOptions measurement;
  // Fault injection (all-zero rates: disabled) and the retry policy that
  // governs failed measurement attempts.
  sim::FaultProfile faults;
  support::RetryPolicy retry;
};

// One in-flight evaluation's private context, split off serially at
// dispatch time so concurrent evaluations share no mutable state.
struct EvalTicket {
  support::Rng fault_rng;         // per-sample child of the fault stream
  int slot = -1;                  // the placement's evaluation-table entry
  bool has_clean = false;         // the entry was done: `clean` holds it
  sim::EvalResult clean;
};

// One evaluation's result plus the deterministic counter deltas the
// commit phase applies in submission order.
struct EvalOutcome {
  sim::EvalResult result;
  sim::EvalResult clean;  // computed noiseless result when the ticket had none
  int attempts = 0;
  int transient_failures = 0;
  int timeouts = 0;
  int retries = 0;
  int exhausted = 0;
  double backoff_seconds = 0.0;
};

class PlacementEnvironment : public Environment {
 public:
  PlacementEnvironment(const graph::OpGraph& graph,
                       const sim::ClusterSpec& cluster,
                       EnvironmentOptions options = {});

  sim::EvalResult Evaluate(const sim::Placement& placement,
                           support::Rng* rng) override;
  double InvalidPenaltySeconds() const override { return penalty_seconds_; }

  // Three-phase evaluation protocol (see file comment). Prepare/Commit
  // take the state lock and may be called from any thread, but the
  // determinism contract requires Prepare calls in dispatch order and
  // Commit calls in submission order; EvaluateTicket is const and safe
  // to run concurrently.
  EvalTicket PrepareEvaluation(const sim::Placement& placement);
  EvalOutcome EvaluateTicket(const sim::Placement& placement,
                             EvalTicket& ticket, support::Rng* rng) const;
  void CommitEvaluation(const EvalTicket& ticket, const EvalOutcome& outcome);

  // Fault stream + robustness counters, for checkpoint/resume. Layout
  // (native endian): u64 rng[4] | i32 cache_hits, evaluations, attempts,
  // transient_failures, timeouts, retries, exhausted | f64 backoff.
  void SaveState(support::ByteWriter& out) const override;
  void LoadState(support::ByteReader& in) override;

  const graph::OpGraph& graph() const { return *graph_; }
  const sim::ClusterSpec& cluster() const { return *cluster_; }
  const sim::MeasurementSession& session() const { return session_; }
  // Unlocked: read it only while no evaluation is in progress.
  const EvalCache& cache() const { return cache_; }

  int cache_hits() const { return ReadCounter(cache_hits_); }
  int evaluations() const { return ReadCounter(evaluations_); }

  // Measurement attempts: one per evaluation when faults are disabled.
  int attempts() const { return ReadCounter(attempts_); }
  // Robustness counters (all zero when faults are disabled).
  int transient_failures() const { return ReadCounter(transient_failures_); }
  int timeouts() const { return ReadCounter(timeouts_); }
  int retries() const { return ReadCounter(retries_); }
  // Evaluations that exhausted every retry and degraded to the penalty.
  int exhausted_evaluations() const {
    return ReadCounter(exhausted_evaluations_);
  }
  double backoff_seconds_total() const;

 private:
  sim::EvalResult EvaluateWithRetries(const sim::Placement& placement,
                                      const sim::EvalResult& clean,
                                      support::Rng* noise_rng,
                                      support::Rng& fault_rng,
                                      EvalOutcome* outcome) const;
  int ReadCounter(const int& counter) const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return counter;
  }

  const graph::OpGraph* graph_;
  const sim::ClusterSpec* cluster_;
  EnvironmentOptions options_;
  sim::MeasurementSession session_;
  std::unique_ptr<sim::FaultInjector> injector_;  // null: faults disabled
  double penalty_seconds_ = 0.0;

  // Mutable environment state. The mutex guards everything below it:
  // the fault stream, the evaluation table, the counters and the backoff
  // accumulator. Counters are only written inside the serialized
  // Prepare/Commit phases, so plain ints under the lock suffice — no
  // atomics needed (eagle-lint rule CC01 keeps it that way).
  mutable std::mutex state_mutex_;
  support::Rng fault_rng_;
  EvalCache cache_;
  int cache_hits_ = 0;
  int evaluations_ = 0;
  int attempts_ = 0;
  int transient_failures_ = 0;
  int timeouts_ = 0;
  int retries_ = 0;
  int exhausted_evaluations_ = 0;
  double backoff_seconds_total_ = 0.0;  // summed in commit order
};

}  // namespace eagle::core
