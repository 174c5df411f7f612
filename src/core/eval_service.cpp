#include "core/eval_service.h"

#include "support/check.h"
#include "support/metrics.h"

namespace eagle::core {

namespace {

namespace metrics = support::metrics;

// Telemetry observers only: none of these values feed back into tickets,
// RNG streams or results, so the bit-identity guarantee of EvaluateBatch
// is unaffected (test_metrics locks this in).
struct ServiceMetrics {
  metrics::Histogram* queue_wait =
      metrics::GetHistogram("eval.queue_wait_seconds");
  metrics::Gauge* occupancy = metrics::GetGauge("eval.worker_occupancy");
};

ServiceMetrics& Metrics() {
  static ServiceMetrics m;
  return m;
}

}  // namespace

EvalService::EvalService(PlacementEnvironment& environment, int num_threads)
    : environment_(&environment) {
  if (num_threads > 1) {
    pool_ = std::make_unique<support::ThreadPool>(num_threads);
  }
}

EvalService::~EvalService() = default;

int EvalService::num_threads() const {
  return pool_ == nullptr ? 1 : pool_->num_threads();
}

std::vector<sim::EvalResult> EvalService::EvaluateBatch(
    const std::vector<sim::Placement>& placements,
    std::vector<support::Rng>& rngs) {
  EAGLE_SPAN("eval.batch");
  EAGLE_CHECK(placements.size() == rngs.size());
  const std::size_t count = placements.size();
  const double batch_start = metrics::NowSeconds();

  // Phase 1 — dispatch order: split the fault stream, claim table slots
  // and settle cache accounting while the environment is still in its
  // pre-batch state.
  std::vector<EvalTicket> tickets;
  tickets.reserve(count);
  for (const sim::Placement& placement : placements) {
    tickets.push_back(environment_->PrepareEvaluation(placement));
  }

  // Phase 2 — concurrent: each evaluation touches only its own ticket
  // and RNG. Exceptions propagate out of Wait() after the batch drains.
  // busy_seconds[i] is written by exactly one worker and read only after
  // Wait(), so no synchronization beyond the pool barrier is needed.
  std::vector<EvalOutcome> outcomes(count);
  std::vector<double> busy_seconds(count, 0.0);
  auto run_ticket = [this, &placements, &tickets, &rngs, &outcomes,
                     &busy_seconds](std::size_t i, double submitted) {
    Metrics().queue_wait->Observe(metrics::NowSeconds() - submitted);
    const double start = metrics::NowSeconds();
    {
      EAGLE_SPAN("eval.ticket");
      outcomes[i] =
          environment_->EvaluateTicket(placements[i], tickets[i], &rngs[i]);
    }
    busy_seconds[i] = metrics::NowSeconds() - start;
  };
  if (pool_ != nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      const double submitted = metrics::NowSeconds();
      pool_->Submit([&run_ticket, i, submitted] { run_ticket(i, submitted); });
    }
    pool_->Wait();
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      run_ticket(i, metrics::NowSeconds());
    }
  }

  // Worker occupancy of this batch: busy worker-seconds over available
  // worker-seconds. 1.0 means every thread computed the whole time; low
  // values expose straggler-bound batches.
  const double wall = metrics::NowSeconds() - batch_start;
  if (count > 0 && wall > 0.0) {
    double busy = 0.0;
    for (double s : busy_seconds) busy += s;
    Metrics().occupancy->Set(busy / (wall * num_threads()));
  }

  // Phase 3 — submission order: replay table fills and counter updates
  // exactly as an interleaved serial run would have.
  std::vector<sim::EvalResult> results;
  results.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    environment_->CommitEvaluation(tickets[i], outcomes[i]);
    results.push_back(outcomes[i].result);
  }
  return results;
}

}  // namespace eagle::core
