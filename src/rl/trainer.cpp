#include "rl/trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "rl/checkpoint.h"
#include "support/check.h"
#include "support/log.h"
#include "support/metrics.h"

namespace eagle::rl {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kReinforce: return "REINFORCE";
    case Algorithm::kPpo: return "PPO";
    case Algorithm::kPpoCe: return "PPO+CE";
  }
  return "?";
}

TrainResult TrainAgent(core::PolicyAgent& agent, core::Environment& environment,
                       const TrainerOptions& options,
                       const ProgressCallback& on_progress) {
  EAGLE_CHECK(options.total_samples >= 1 && options.minibatch_size >= 1);
  support::Rng rng(options.seed);
  nn::Adam optimizer(agent.params(), options.adam);
  EmaBaseline baseline;
  RewardOptions reward_options{environment.InvalidPenaltySeconds()};

  TrainResult result;
  std::vector<core::Sample> pool;  // all samples (CE elite selection)
  std::vector<core::Sample> batch;
  batch.reserve(static_cast<std::size_t>(options.minibatch_size));
  int since_ce = 0;

  // Crash-safe checkpointing: full trainer state snapshotted to an
  // atomically-renamed file, restored bit-compatibly with resume=true.
  const std::string snapshot_path =
      options.checkpoint_dir.empty()
          ? std::string()
          : CheckpointFilePath(options.checkpoint_dir,
                               options.checkpoint_name);
  int last_snapshot_sample = -1;
  const auto save_snapshot = [&]() {
    if (snapshot_path.empty()) return;
    EAGLE_SPAN("train.checkpoint");
    const CheckpointData data{.result = result,
                              .rng_state = rng.state(),
                              .baseline_value = baseline.value(),
                              .baseline_initialized = baseline.initialized(),
                              .pool = pool,
                              .batch = batch,
                              .since_ce = since_ce};
    if (SaveCheckpoint(snapshot_path, agent.params(), optimizer,
                       &environment, data)) {
      last_snapshot_sample = result.total_samples;
    }
  };
  if (options.resume && !snapshot_path.empty()) {
    if (!std::filesystem::exists(snapshot_path)) {
      EAGLE_LOG(Info) << agent.name() << ": no checkpoint at "
                      << snapshot_path << ", starting fresh";
    } else {
      CheckpointData data;
      const support::Status status =
          LoadCheckpoint(snapshot_path, agent.params(), optimizer,
                         &environment, &data);
      if (!status.ok()) throw std::runtime_error(status.ToString());
      rng.set_state(data.rng_state);
      baseline.set_state(data.baseline_value, data.baseline_initialized);
      result = std::move(data.result);
      pool = std::move(data.pool);
      batch = std::move(data.batch);
      since_ce = data.since_ce;
      last_snapshot_sample = result.total_samples;
      EAGLE_LOG(Info) << agent.name() << ": resumed from " << snapshot_path
                      << " at sample " << result.total_samples;
    }
  }

  // Child-stream counter for evaluation RNGs: sample i (globally) is
  // evaluated with rng.Split(i). Rounds are dispatched only at commit
  // boundaries, so on resume the counter is simply the sample count.
  std::uint64_t next_eval_stream =
      static_cast<std::uint64_t>(result.total_samples);

  int round_index = 0;
  support::metrics::Counter* rounds_counter =
      support::metrics::GetCounter("train.rounds");
  while (result.total_samples < options.total_samples) {
    if (options.max_virtual_hours > 0.0 &&
        result.total_virtual_hours >= options.max_virtual_hours) {
      break;
    }
    // One round fills the minibatch (or what remains of the sample
    // budget). Sampling is serial so the policy RNG stream is identical
    // regardless of how the evaluations are scheduled.
    const int room = options.minibatch_size - static_cast<int>(batch.size());
    const int round_size =
        std::min(room, options.total_samples - result.total_samples);
    EAGLE_CHECK(round_size >= 1);
    std::vector<core::Sample> round;
    std::vector<sim::Placement> placements;
    std::vector<support::Rng> eval_rngs;
    round.reserve(static_cast<std::size_t>(round_size));
    placements.reserve(static_cast<std::size_t>(round_size));
    eval_rngs.reserve(static_cast<std::size_t>(round_size));
    {
      EAGLE_SPAN("train.sample");
      for (int i = 0; i < round_size; ++i) {
        core::Sample sample = agent.SampleDecision(rng);
        sample.eval_stream = next_eval_stream++;
        eval_rngs.push_back(rng.Split(sample.eval_stream));
        placements.push_back(agent.ToPlacement(sample));
        round.push_back(std::move(sample));
      }
    }

    std::vector<sim::EvalResult> evals;
    {
      EAGLE_SPAN("train.eval");
      if (options.evaluator != nullptr) {
        evals = options.evaluator->EvaluateBatch(placements, eval_rngs);
        EAGLE_CHECK(evals.size() == round.size());
      } else {
        evals.reserve(round.size());
        for (std::size_t i = 0; i < round.size(); ++i) {
          evals.push_back(environment.Evaluate(placements[i], &eval_rngs[i]));
        }
      }
    }

    // Reduce in submission order: every mutation below replays exactly
    // what the serial one-sample loop did, keeping history, best-so-far
    // and the EMA baseline bit-identical at any thread count.
    bool budget_exhausted = false;
    int samples_this_round = 0;
    {
    EAGLE_SPAN("train.reduce");
    for (std::size_t i = 0; i < round.size(); ++i) {
      core::Sample& sample = round[i];
      const sim::EvalResult& eval = evals[i];
      sample.valid = eval.valid;
      sample.per_step_seconds = eval.per_step_seconds;
      sample.reward = ComputeReward(eval, reward_options);
      sample.advantage = baseline.AdvantageAndUpdate(sample.reward);

      result.total_samples++;
      result.total_virtual_hours += eval.measurement_cost_seconds / 3600.0;
      if (!eval.valid) {
        result.invalid_samples++;
      } else if (eval.true_per_step_seconds < result.best_per_step_seconds) {
        result.found_valid = true;
        result.best_per_step_seconds = eval.true_per_step_seconds;
        result.best_placement = placements[i];
        result.best_found_at_hours = result.total_virtual_hours;
      }

      HistoryPoint point;
      point.sample_index = result.total_samples;
      point.virtual_hours = result.total_virtual_hours;
      point.per_step_seconds = eval.valid
                                   ? eval.per_step_seconds
                                   : std::numeric_limits<double>::infinity();
      point.best_so_far_seconds = result.best_per_step_seconds;
      result.history.push_back(point);
      if (on_progress) on_progress(point);

      batch.push_back(std::move(sample));
      ++since_ce;
      ++samples_this_round;

      if (options.max_virtual_hours > 0.0 &&
          result.total_virtual_hours >= options.max_virtual_hours) {
        // Same stop point as the serial loop: the sample that crossed the
        // budget is counted, anything dispatched after it this round is
        // discarded (its measurement cost is never charged).
        budget_exhausted = true;
        break;
      }
    }
    }  // span train.reduce

    bool updated_policy = false;
    if (static_cast<int>(batch.size()) >= options.minibatch_size) {
      updated_policy = true;
      {
      EAGLE_SPAN("train.update");
      switch (options.algorithm) {
        case Algorithm::kReinforce:
          ReinforceUpdate(agent, optimizer, batch, options.reinforce);
          break;
        case Algorithm::kPpo:
          PpoUpdate(agent, optimizer, batch, options.ppo);
          break;
        case Algorithm::kPpoCe: {
          PpoUpdate(agent, optimizer, batch, options.ppo);
          for (auto& s : batch) pool.push_back(std::move(s));
          if (since_ce >= options.ce_interval) {
            const int used =
                CrossEntropyUpdate(agent, optimizer, pool, options.ce);
            EAGLE_LOG(Debug) << agent.name() << ": CE update over " << used
                             << " elites at sample " << result.total_samples;
            since_ce = 0;
          }
          break;
        }
      }
      batch.clear();
      }  // span train.update
      if (options.checkpoint_interval > 0 &&
          result.total_samples - last_snapshot_sample >=
              options.checkpoint_interval) {
        save_snapshot();
      }
    }

    rounds_counter->Increment();
    if (options.on_round) {
      RoundStats stats;
      stats.round_index = round_index;
      stats.samples_in_round = samples_this_round;
      stats.total_samples = result.total_samples;
      stats.virtual_hours = result.total_virtual_hours;
      stats.best_per_step_seconds = result.best_per_step_seconds;
      stats.updated_policy = updated_policy;
      options.on_round(stats);
    }
    ++round_index;
    if (budget_exhausted) break;
  }
  if (result.total_samples != last_snapshot_sample) save_snapshot();
  return result;
}

}  // namespace eagle::rl
