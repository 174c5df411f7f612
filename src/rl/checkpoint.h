// Crash-safe checkpointing for the RL training loop.
//
// A checkpoint captures everything TrainAgent needs to resume a run
// bit-compatibly after a crash or kill: agent parameters (nn/serialize
// format), Adam moment slots, the EMA baseline, the trainer's RNG state,
// the virtual clock and full progress history, the CE elite pool, and an
// opaque environment-state blob (Environment::SerializeState — the fault
// stream and robustness counters for PlacementEnvironment).
//
// Files are written atomically (support::WriteFileAtomic): the
// checkpoint is serialized to `<path>.tmp` and renamed over `<path>`
// only once complete, so a crash mid-write can never corrupt the
// previous good checkpoint.
//
// Format v2 ("EAGLCKP2") records each sample's evaluation RNG stream
// number so runs resumed through the parallel evaluation path stay
// bit-compatible; v1 checkpoints still load (streams default to 0).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "nn/adam.h"
#include "rl/trainer.h"

namespace eagle::rl {

// Current on-disk checkpoint format. The final byte of the file magic is
// derived from this constant ('0' + version), so bumping it is the single
// change that retags newly written checkpoints; the loader keeps accepting
// the previous version. Bump when the serialized layout changes.
inline constexpr int kCheckpointFormatVersion = 2;

// Trainer-loop state stored alongside the parameter/optimizer sections.
struct CheckpointData {
  TrainResult result;                          // progress so far
  std::array<std::uint64_t, 4> rng_state{};    // trainer's sampling stream
  double baseline_value = 0.0;                 // EMA baseline
  bool baseline_initialized = false;
  std::vector<core::Sample> pool;              // CE elite pool (PPO+CE)
  std::vector<core::Sample> batch;             // in-flight minibatch
  int since_ce = 0;
  std::string env_state;                       // Environment::SerializeState
  std::string critic_state;                    // ValueBaseline (optional)
};

// Serializes params + optimizer + data to `path` via atomic rename.
// Returns false (after logging) on I/O failure.
bool SaveCheckpoint(const std::string& path, const nn::ParamStore& params,
                    const nn::Adam& optimizer, const CheckpointData& data);

// Restores a checkpoint written by SaveCheckpoint. Returns false if the
// file does not exist; throws on corrupt or mismatched contents.
bool LoadCheckpoint(const std::string& path, nn::ParamStore& params,
                    nn::Adam& optimizer, CheckpointData* data);

// The checkpoint file TrainAgent uses for `options.checkpoint_dir`.
std::string CheckpointFilePath(const std::string& dir,
                               const std::string& name);

}  // namespace eagle::rl
