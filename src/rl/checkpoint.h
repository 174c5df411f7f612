// Crash-safe checkpointing for the RL training loop.
//
// A checkpoint captures everything TrainAgent needs to resume a run
// bit-compatibly after a crash or kill: agent parameters, Adam moment
// slots, the EMA baseline, the trainer's RNG state, the virtual clock and
// full progress history, the CE elite pool and in-flight minibatch and the
// environment's state (Environment::SaveState — the fault stream and
// robustness counters for PlacementEnvironment). The format keeps the
// section of the retired value-network critic, always empty, so EMA
// checkpoints written before the critic was removed still load.
//
// Every section goes through the one codec in support/byte_io.h; the
// byte layout is tabulated in docs/AGENTS.md ("Crash-safe checkpoints").
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
#include "support/status.h"

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
};

// Serializes params, optimizer, the environment's state (null: an empty
// section) and data to `path` via atomic rename. Returns false (after
// logging) on I/O failure.
bool SaveCheckpoint(const std::string& path, const nn::ParamStore& params,
                    const nn::Adam& optimizer,
                    const core::Environment* environment,
                    const CheckpointData& data);

// Restores a checkpoint written by SaveCheckpoint into params, optimizer,
// environment and *data. An empty environment section, or a null
// environment, is skipped. Every failure names `path` and a byte offset:
// kIo when the file cannot be opened or read, kResourceLimit when a count
// or length exceeds the bytes left, kSyntax for anything else (bad magic,
// truncation, a bad end marker, a section that does not match the
// targets, or a critic section that is not empty). A failed load may
// leave the targets partly overwritten.
support::Status LoadCheckpoint(const std::string& path,
                               nn::ParamStore& params, nn::Adam& optimizer,
                               core::Environment* environment,
                               CheckpointData* data);

// The checkpoint file TrainAgent uses for `options.checkpoint_dir`.
std::string CheckpointFilePath(const std::string& dir,
                               const std::string& name);

}  // namespace eagle::rl
