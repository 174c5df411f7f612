#include "rl/checkpoint.h"

#include <cstring>
#include <fstream>

#include "nn/serialize.h"
#include "support/atomic_file.h"
#include "support/check.h"
#include "support/log.h"

namespace eagle::rl {

namespace {

// Version 2 added Sample::eval_stream (the per-sample evaluation RNG
// stream number used by the parallel evaluation path). Writers emit v2;
// the reader still accepts v1 checkpoints, defaulting eval_stream to 0.
// The version digit in the magic comes from kCheckpointFormatVersion
// (checkpoint.h) so the tag can never drift from the format constant.
constexpr char kMagicV1[8] = {
    'E', 'A', 'G', 'L', 'C', 'K', 'P',
    static_cast<char>('0' + kCheckpointFormatVersion - 1)};
constexpr char kMagicV2[8] = {
    'E', 'A', 'G', 'L', 'C', 'K', 'P',
    static_cast<char>('0' + kCheckpointFormatVersion)};
constexpr char kEndMarker[8] = {'E', 'A', 'G', 'L', 'C', 'K', 'P', 'E'};

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
void ReadPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  EAGLE_CHECK_MSG(in, "truncated checkpoint");
}

void WriteI32Vector(std::ostream& out, const std::vector<std::int32_t>& v) {
  WritePod(out, static_cast<std::uint32_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(std::int32_t)));
}

std::vector<std::int32_t> ReadI32Vector(std::istream& in) {
  std::uint32_t count = 0;
  ReadPod(in, count);
  EAGLE_CHECK_MSG(count < (1u << 28), "corrupt checkpoint vector size");
  std::vector<std::int32_t> v(count);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(std::int32_t)));
  EAGLE_CHECK_MSG(in, "truncated checkpoint");
  return v;
}

void WriteSample(std::ostream& out, const core::Sample& sample) {
  WriteI32Vector(out, sample.grouping);
  WriteI32Vector(out, sample.group_devices);
  WritePod(out, sample.logp);
  WritePod(out, static_cast<std::int32_t>(sample.num_decisions));
  WritePod(out, sample.eval_stream);
  WritePod(out, static_cast<std::uint8_t>(sample.valid ? 1 : 0));
  WritePod(out, sample.per_step_seconds);
  WritePod(out, sample.reward);
  WritePod(out, sample.advantage);
}

core::Sample ReadSample(std::istream& in, int version) {
  core::Sample sample;
  sample.grouping = ReadI32Vector(in);
  sample.group_devices = ReadI32Vector(in);
  ReadPod(in, sample.logp);
  std::int32_t num_decisions = 0;
  ReadPod(in, num_decisions);
  sample.num_decisions = num_decisions;
  if (version >= 2) ReadPod(in, sample.eval_stream);
  std::uint8_t valid = 0;
  ReadPod(in, valid);
  sample.valid = valid != 0;
  ReadPod(in, sample.per_step_seconds);
  ReadPod(in, sample.reward);
  ReadPod(in, sample.advantage);
  return sample;
}

void WriteResult(std::ostream& out, const TrainResult& result) {
  WritePod(out, static_cast<std::uint8_t>(result.found_valid ? 1 : 0));
  WritePod(out, result.best_per_step_seconds);
  WritePod(out, result.best_found_at_hours);
  WritePod(out, result.total_virtual_hours);
  WritePod(out, static_cast<std::int32_t>(result.invalid_samples));
  WritePod(out, static_cast<std::int32_t>(result.total_samples));
  WriteI32Vector(out, result.best_placement.devices());
  WritePod(out, static_cast<std::uint32_t>(result.history.size()));
  for (const HistoryPoint& point : result.history) {
    WritePod(out, static_cast<std::int32_t>(point.sample_index));
    WritePod(out, point.virtual_hours);
    WritePod(out, point.per_step_seconds);
    WritePod(out, point.best_so_far_seconds);
  }
}

TrainResult ReadResult(std::istream& in) {
  TrainResult result;
  std::uint8_t found_valid = 0;
  ReadPod(in, found_valid);
  result.found_valid = found_valid != 0;
  ReadPod(in, result.best_per_step_seconds);
  ReadPod(in, result.best_found_at_hours);
  ReadPod(in, result.total_virtual_hours);
  std::int32_t invalid_samples = 0, total_samples = 0;
  ReadPod(in, invalid_samples);
  ReadPod(in, total_samples);
  result.invalid_samples = invalid_samples;
  result.total_samples = total_samples;
  result.best_placement = sim::Placement::FromRaw(ReadI32Vector(in));
  std::uint32_t history_size = 0;
  ReadPod(in, history_size);
  EAGLE_CHECK_MSG(history_size < (1u << 28), "corrupt checkpoint history");
  result.history.reserve(history_size);
  for (std::uint32_t i = 0; i < history_size; ++i) {
    HistoryPoint point;
    std::int32_t sample_index = 0;
    ReadPod(in, sample_index);
    point.sample_index = sample_index;
    ReadPod(in, point.virtual_hours);
    ReadPod(in, point.per_step_seconds);
    ReadPod(in, point.best_so_far_seconds);
    result.history.push_back(point);
  }
  return result;
}

}  // namespace

std::string CheckpointFilePath(const std::string& dir,
                               const std::string& name) {
  return dir + "/" + name + ".ckpt";
}

bool SaveCheckpoint(const std::string& path, const nn::ParamStore& params,
                    const nn::Adam& optimizer, const CheckpointData& data) {
  // The temp-file-then-rename dance lives in WriteFileAtomic: a crash at
  // any instant leaves the previous good checkpoint loadable.
  return support::WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(kMagicV2, sizeof(kMagicV2));
    nn::SaveParams(params, out);
    optimizer.SaveState(out);
    for (std::uint64_t s : data.rng_state) WritePod(out, s);
    WritePod(out, data.baseline_value);
    WritePod(out, static_cast<std::uint8_t>(data.baseline_initialized));
    WriteResult(out, data.result);
    WritePod(out, static_cast<std::uint32_t>(data.pool.size()));
    for (const core::Sample& sample : data.pool) WriteSample(out, sample);
    WritePod(out, static_cast<std::uint32_t>(data.batch.size()));
    for (const core::Sample& sample : data.batch) WriteSample(out, sample);
    WritePod(out, static_cast<std::int32_t>(data.since_ce));
    WritePod(out, static_cast<std::uint64_t>(data.env_state.size()));
    out.write(data.env_state.data(),
              static_cast<std::streamsize>(data.env_state.size()));
    WritePod(out, static_cast<std::uint64_t>(data.critic_state.size()));
    out.write(data.critic_state.data(),
              static_cast<std::streamsize>(data.critic_state.size()));
    out.write(kEndMarker, sizeof(kEndMarker));
    return static_cast<bool>(out);
  });
}

bool LoadCheckpoint(const std::string& path, nn::ParamStore& params,
                    nn::Adam& optimizer, CheckpointData* data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8];
  in.read(magic, sizeof(magic));
  EAGLE_CHECK_MSG(in, "bad checkpoint magic in " << path);
  int version = 0;
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    version = kCheckpointFormatVersion;
  } else if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    version = kCheckpointFormatVersion - 1;
  }
  EAGLE_CHECK_MSG(version != 0, "bad checkpoint magic in " << path);
  nn::LoadParams(params, in);
  optimizer.LoadState(in);
  for (auto& s : data->rng_state) ReadPod(in, s);
  ReadPod(in, data->baseline_value);
  std::uint8_t baseline_initialized = 0;
  ReadPod(in, baseline_initialized);
  data->baseline_initialized = baseline_initialized != 0;
  data->result = ReadResult(in);
  std::uint32_t pool_size = 0;
  ReadPod(in, pool_size);
  EAGLE_CHECK_MSG(pool_size < (1u << 28), "corrupt checkpoint pool");
  data->pool.clear();
  data->pool.reserve(pool_size);
  for (std::uint32_t i = 0; i < pool_size; ++i) {
    data->pool.push_back(ReadSample(in, version));
  }
  std::uint32_t batch_size = 0;
  ReadPod(in, batch_size);
  EAGLE_CHECK_MSG(batch_size < (1u << 28), "corrupt checkpoint batch");
  data->batch.clear();
  data->batch.reserve(batch_size);
  for (std::uint32_t i = 0; i < batch_size; ++i) {
    data->batch.push_back(ReadSample(in, version));
  }
  std::int32_t since_ce = 0;
  ReadPod(in, since_ce);
  data->since_ce = since_ce;
  std::uint64_t env_state_size = 0;
  ReadPod(in, env_state_size);
  EAGLE_CHECK_MSG(env_state_size < (1ull << 32), "corrupt checkpoint");
  data->env_state.resize(env_state_size);
  in.read(data->env_state.data(),
          static_cast<std::streamsize>(env_state_size));
  std::uint64_t critic_state_size = 0;
  ReadPod(in, critic_state_size);
  EAGLE_CHECK_MSG(critic_state_size < (1ull << 32), "corrupt checkpoint");
  data->critic_state.resize(critic_state_size);
  in.read(data->critic_state.data(),
          static_cast<std::streamsize>(critic_state_size));
  char end_marker[8];
  in.read(end_marker, sizeof(end_marker));
  EAGLE_CHECK_MSG(
      in && std::memcmp(end_marker, kEndMarker, sizeof(kEndMarker)) == 0,
      "incomplete checkpoint " << path);
  return true;
}

}  // namespace eagle::rl
