#include "core/env.h"

#include <algorithm>
#include <limits>

#include "sim/cost_model.h"
#include "support/check.h"
#include "support/metrics.h"

namespace eagle::core {

namespace {

// Registry handles resolved once; the objects live for the process, so
// the raw pointers stay valid. These counters are observers only — the
// authoritative, checkpointed statistics remain the members guarded by
// state_mutex_.
struct EnvMetrics {
  support::metrics::Counter* evaluations =
      support::metrics::GetCounter("env.evaluations");
  support::metrics::Counter* cache_hits =
      support::metrics::GetCounter("env.cache_hits");
  support::metrics::Counter* cache_misses =
      support::metrics::GetCounter("env.cache_misses");
  support::metrics::Counter* attempts =
      support::metrics::GetCounter("env.attempts");
  support::metrics::Counter* transient_failures =
      support::metrics::GetCounter("env.transient_failures");
  support::metrics::Counter* timeouts =
      support::metrics::GetCounter("env.timeouts");
  support::metrics::Counter* retries =
      support::metrics::GetCounter("env.retries");
  support::metrics::Counter* exhausted =
      support::metrics::GetCounter("env.exhausted_evaluations");
  support::metrics::Histogram* backoff_seconds =
      support::metrics::GetHistogram("env.backoff_seconds");
};

EnvMetrics& Metrics() {
  static EnvMetrics m;
  return m;
}

// Invalid placements are charged this multiple of the serialized
// single-fastest-device per-step lower bound.
constexpr double kPenaltyFactor = 10.0;

}  // namespace

PlacementEnvironment::PlacementEnvironment(const graph::OpGraph& graph,
                                           const sim::ClusterSpec& cluster,
                                           EnvironmentOptions options)
    : graph_(&graph),
      cluster_(&cluster),
      options_(options),
      session_(graph, cluster, options.measurement),
      fault_rng_(options.faults.seed) {
  options_.retry.Validate();
  if (options_.faults.enabled()) {
    injector_ = std::make_unique<sim::FaultInjector>(options_.faults, cluster);
  }
  // Serialized lower bound on the fastest device (ignoring memory): the
  // "if it all fit on one GPU" time, scaled into the invalid penalty.
  const sim::CostModel cost(cluster);
  double best = std::numeric_limits<double>::infinity();
  for (sim::DeviceId d = 0; d < cluster.num_devices(); ++d) {
    double total = 0.0;
    for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
      total += cost.ComputeSeconds(graph.op(i), d);
    }
    best = std::min(best, total);
  }
  penalty_seconds_ = kPenaltyFactor * best;
  EAGLE_CHECK(penalty_seconds_ > 0.0);
}

EvalTicket PlacementEnvironment::PrepareEvaluation(
    const sim::Placement& placement) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  ++evaluations_;
  Metrics().evaluations->Increment();
  EvalTicket ticket;
  if (injector_ != nullptr) {
    // One master-stream draw per evaluation, in dispatch order: the
    // per-sample child then feeds every retry attempt and backoff jitter
    // of this evaluation, on whichever thread it lands.
    ticket.fault_rng = fault_rng_.Split();
  }
  const auto [slot, added] = cache_.Claim(placement);
  ticket.slot = slot;
  if (added) {
    Metrics().cache_misses->Increment();
  } else {
    // Done, or a duplicate still in flight in this batch: a serial run
    // would have found it cached by now either way, so count the hit. An
    // in-flight entry hands over no result; the worker recomputes the
    // identical noiseless result rather than waiting.
    ++cache_hits_;
    Metrics().cache_hits->Increment();
    ticket.has_clean = cache_.Result(slot, &ticket.clean);
  }
  return ticket;
}

EvalOutcome PlacementEnvironment::EvaluateTicket(
    const sim::Placement& placement, EvalTicket& ticket,
    support::Rng* rng) const {
  EvalOutcome outcome;
  if (!ticket.has_clean) {
    // The *noiseless* result is what the table keeps; noise is re-applied
    // per evaluation below so repeated visits still look like
    // independent measurements.
    outcome.clean = session_.Evaluate(placement, nullptr);
  }
  const sim::EvalResult& clean =
      ticket.has_clean ? ticket.clean : outcome.clean;

  if (injector_ == nullptr) {
    outcome.attempts = 1;
    outcome.result = clean;
    if (clean.valid) {
      outcome.result.per_step_seconds =
          session_.MeasuredPerStep(clean.true_per_step_seconds, rng);
    }
    return outcome;
  }

  outcome.result =
      EvaluateWithRetries(placement, clean, rng, ticket.fault_rng, &outcome);
  return outcome;
}

sim::EvalResult PlacementEnvironment::EvaluateWithRetries(
    const sim::Placement& placement, const sim::EvalResult& clean,
    support::Rng* noise_rng, support::Rng& fault_rng,
    EvalOutcome* outcome) const {
  const support::RetryPolicy& retry = options_.retry;
  double cost_so_far = 0.0;
  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    ++outcome->attempts;
    const sim::FaultDraw draw = injector_->Draw(fault_rng);
    sim::EvalResult result =
        session_.EvaluateWithFaults(placement, draw, noise_rng);
    bool attempt_failed = result.failed;
    double attempt_cost = result.measurement_cost_seconds;
    if (attempt_failed) {
      ++outcome->transient_failures;
    } else if (retry.attempt_timeout_seconds > 0.0 &&
               attempt_cost > retry.attempt_timeout_seconds) {
      // The harness kills sessions that overrun the measurement budget
      // (e.g. a pathological straggler): the attempt charges exactly the
      // timeout, then counts as a failure.
      attempt_failed = true;
      attempt_cost = retry.attempt_timeout_seconds;
      ++outcome->timeouts;
    }
    cost_so_far += attempt_cost;
    if (!attempt_failed) {
      // The healthy machine's per-step time is the ground truth used for
      // best-placement tracking; what the agent *observed* stays faulty.
      result.valid = clean.valid;
      result.true_per_step_seconds = clean.true_per_step_seconds;
      result.attempts = attempt;
      result.measurement_cost_seconds = cost_so_far;
      return result;
    }
    if (attempt < retry.max_attempts) {
      ++outcome->retries;
      const double backoff = retry.BackoffSeconds(attempt, &fault_rng);
      outcome->backoff_seconds += backoff;
      cost_so_far += backoff;
    }
  }
  // Persistent failure: degrade into the invalid-placement penalty so
  // training continues instead of aborting.
  ++outcome->exhausted;
  sim::EvalResult result;
  result.valid = false;
  result.failed = true;
  result.attempts = retry.max_attempts;
  result.measurement_cost_seconds = cost_so_far;
  return result;
}

void PlacementEnvironment::CommitEvaluation(const EvalTicket& ticket,
                                            const EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (!ticket.has_clean) cache_.Fill(ticket.slot, outcome.clean);
  attempts_ += outcome.attempts;
  transient_failures_ += outcome.transient_failures;
  timeouts_ += outcome.timeouts;
  retries_ += outcome.retries;
  exhausted_evaluations_ += outcome.exhausted;
  // Doubles don't commute bit-exactly: summed here, in commit order, so
  // an N-thread run reports the same total as a serial one.
  backoff_seconds_total_ += outcome.backoff_seconds;
  EnvMetrics& m = Metrics();
  m.attempts->Increment(outcome.attempts);
  m.transient_failures->Increment(outcome.transient_failures);
  m.timeouts->Increment(outcome.timeouts);
  m.retries->Increment(outcome.retries);
  m.exhausted->Increment(outcome.exhausted);
  if (outcome.retries > 0) {
    m.backoff_seconds->Observe(outcome.backoff_seconds);
  }
}

sim::EvalResult PlacementEnvironment::Evaluate(
    const sim::Placement& placement, support::Rng* rng) {
  EvalTicket ticket = PrepareEvaluation(placement);
  EvalOutcome outcome = EvaluateTicket(placement, ticket, rng);
  CommitEvaluation(ticket, outcome);
  return outcome.result;
}

double PlacementEnvironment::backoff_seconds_total() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return backoff_seconds_total_;
}

void PlacementEnvironment::SaveState(support::ByteWriter& out) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  out.Put(fault_rng_.state(), cache_hits_, evaluations_, attempts_,
          transient_failures_, timeouts_, retries_, exhausted_evaluations_,
          backoff_seconds_total_);
}

void PlacementEnvironment::LoadState(support::ByteReader& in) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  fault_rng_.set_state(in.Get<std::array<std::uint64_t, 4>>());
  for (int* counter : {&cache_hits_, &evaluations_, &attempts_,
                       &transient_failures_, &timeouts_, &retries_,
                       &exhausted_evaluations_}) {
    *counter = in.Get<int>();
  }
  backoff_seconds_total_ = in.Get<double>();
}

}  // namespace eagle::core
