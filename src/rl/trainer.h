// The RL training loop shared by all agents: sample placements in
// minibatches, evaluate them in the environment, shape rewards/advantages
// with the EMA baseline of Eq. 4, and update the agent with the configured
// algorithm (REINFORCE / PPO / PPO joint with cross-entropy, §III-D). The
// EMA is the only advantage baseline: the paper tried an A2C-style value
// network and found it under-trained at device-placement sample rates.
//
// The loop is round-structured for parallel evaluation: each round
// samples a full minibatch up front (serial, so the policy RNG stream is
// fixed), evaluates it — inline or through a BatchEvaluator such as
// core::EvalService — and reduces rewards, baseline updates, history and
// best-so-far tracking in submission order. The reduction replays
// exactly what a one-sample-at-a-time loop would have done, so results
// are bit-identical at any thread count.
//
// The loop also maintains the *virtual clock*: each evaluated placement
// charges its measurement cost (session setup + warm-up + 15 measured
// steps, §IV-C) so training curves can be plotted against simulated hours
// exactly as Figs. 2 and 5–7 plot real hours.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/policy.h"
#include "nn/adam.h"
#include "rl/cross_entropy.h"
#include "rl/ppo.h"
#include "rl/reinforce.h"
#include "rl/reward.h"

namespace eagle::rl {

enum class Algorithm { kReinforce, kPpo, kPpoCe };

const char* AlgorithmName(Algorithm algorithm);

// Per-round digest handed to TrainerOptions::on_round.
struct RoundStats {
  int round_index = 0;         // 0-based round counter for this run
  int samples_in_round = 0;    // counted samples (post budget cut)
  int total_samples = 0;       // cumulative, after this round
  double virtual_hours = 0.0;  // cumulative virtual clock
  double best_per_step_seconds = std::numeric_limits<double>::infinity();
  bool updated_policy = false;  // did this round trigger an agent update?
};

using RoundCallback = std::function<void(const RoundStats&)>;

struct TrainerOptions {
  Algorithm algorithm = Algorithm::kPpo;
  int total_samples = 300;
  int minibatch_size = 10;      // placements per update (paper: 10)
  PpoOptions ppo;               // ε=0.3, 4 epochs, entropy 0.01
  ReinforceOptions reinforce;
  CrossEntropyOptions ce;       // top-5 elites
  int ce_interval = 50;         // samples between CE updates (paper: 50)
  nn::AdamOptions adam;         // lr=0.01, clip=1.0 (paper)
  std::uint64_t seed = 7;
  // Optional parallel evaluation service (not owned; null: evaluate
  // inline). The trainer dispatches each round of samples through it; a
  // conforming evaluator (core::EvalService) keeps the run bit-identical
  // to the inline path at any thread count.
  core::BatchEvaluator* evaluator = nullptr;
  // Stop early once the virtual clock passes this budget (<=0: unlimited).
  // The sample that crosses the budget is the last one counted; samples
  // dispatched after it in the same round are evaluated but discarded.
  double max_virtual_hours = 0.0;
  // Crash-safe training checkpoints (rl/checkpoint.h): when
  // checkpoint_dir is set, the full trainer state (agent parameters,
  // optimizer slots, EMA baseline, RNG, virtual clock, history, CE pool,
  // environment fault stream) is snapshotted to
  // <checkpoint_dir>/<checkpoint_name>.ckpt — atomically renamed — every
  // checkpoint_interval samples (aligned to minibatch boundaries) and
  // once more when the run ends. With resume=true, TrainAgent first
  // restores the latest checkpoint and continues the run bit-compatibly:
  // a killed-and-resumed run reproduces the uninterrupted one exactly.
  // No checkpoint file means a fresh start; a file that fails to load
  // fails the run with std::runtime_error carrying the loader's Status.
  std::string checkpoint_dir;
  std::string checkpoint_name = "trainer";
  int checkpoint_interval = 50;
  bool resume = false;
  // Telemetry hook invoked once per round, after the round's reduction
  // (and agent update, if the minibatch filled). Pure observer: the
  // callback sees a finished RoundStats digest and cannot alter the run,
  // so enabling it keeps training bit-identical. Benches use it to emit
  // one JSONL line per round (--telemetry-out).
  RoundCallback on_round;
};

struct HistoryPoint {
  int sample_index = 0;
  double virtual_hours = 0.0;
  double per_step_seconds = 0.0;      // this sample (inf if invalid)
  double best_so_far_seconds = 0.0;   // running best true per-step time
};

struct TrainResult {
  bool found_valid = false;
  sim::Placement best_placement;
  double best_per_step_seconds = std::numeric_limits<double>::infinity();
  double best_found_at_hours = 0.0;
  double total_virtual_hours = 0.0;
  int invalid_samples = 0;
  int total_samples = 0;
  std::vector<HistoryPoint> history;
};

using ProgressCallback = std::function<void(const HistoryPoint&)>;

TrainResult TrainAgent(core::PolicyAgent& agent, core::Environment& environment,
                       const TrainerOptions& options,
                       const ProgressCallback& on_progress = nullptr);

}  // namespace eagle::rl
