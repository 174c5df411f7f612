// Pass-through decorators the traced repeat wraps around the agent and
// the evaluation service. Each forwarded call is timed by a
// support::metrics span ("bench.*"), so the harness reads its per-layer
// numbers from the same registry snapshot deltas as the program's own
// spans, and the calls appear in the Chrome trace around the program's
// spans.
//
// Both are pure observers: they forward arguments and results unchanged
// and never touch an RNG, so a traced repeat must reproduce the untraced
// repeats' history digest bit for bit (the harness checks it).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/policy.h"
#include "support/metrics.h"

namespace eagle::bench::e2e {

// The placement stream of one training run, deduplicated by content:
// `distinct` holds each placement once, `stream` indexes into it in the
// order the agent produced them. The replays after the timed region run
// the simulator over `distinct` and the evaluation cache over `stream`.
struct PlacementLog {
  std::vector<sim::Placement> distinct;
  std::vector<std::size_t> stream;

  void Record(const sim::Placement& placement) {
    std::vector<std::size_t>& slots = by_hash_[placement.Hash()];
    for (std::size_t slot : slots) {
      if (distinct[slot].devices() == placement.devices()) {
        stream.push_back(slot);
        return;
      }
    }
    slots.push_back(distinct.size());
    stream.push_back(distinct.size());
    distinct.push_back(placement);
  }

 private:
  std::map<std::uint64_t, std::vector<std::size_t>> by_hash_;
};

class TimedAgent : public core::PolicyAgent {
 public:
  TimedAgent(core::PolicyAgent& inner, PlacementLog& log)
      : inner_(&inner), log_(&log) {}

  core::Sample SampleDecision(support::Rng& rng) override {
    EAGLE_SPAN("bench.agent.sample");
    return inner_->SampleDecision(rng);
  }
  Score ScoreDecision(nn::Tape& tape, const core::Sample& sample) override {
    EAGLE_SPAN("bench.agent.score");
    return inner_->ScoreDecision(tape, sample);
  }
  sim::Placement ToPlacement(const core::Sample& sample) const override {
    sim::Placement placement;
    {
      EAGLE_SPAN("bench.agent.to_placement");
      placement = inner_->ToPlacement(sample);
    }
    log_->Record(placement);
    return placement;
  }
  nn::ParamStore& params() override { return inner_->params(); }
  const char* name() const override { return inner_->name(); }

 private:
  core::PolicyAgent* inner_;
  PlacementLog* log_;
};

class TimedEvaluator : public core::BatchEvaluator {
 public:
  explicit TimedEvaluator(core::BatchEvaluator& inner) : inner_(&inner) {}

  std::vector<sim::EvalResult> EvaluateBatch(
      const std::vector<sim::Placement>& placements,
      std::vector<support::Rng>& rngs) override {
    EAGLE_SPAN("bench.eval.batch");
    return inner_->EvaluateBatch(placements, rngs);
  }

 private:
  core::BatchEvaluator* inner_;
};

}  // namespace eagle::bench::e2e
