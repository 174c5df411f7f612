#include "rl/checkpoint.h"

#include <fstream>
#include <string_view>

#include "nn/serialize.h"
#include "support/atomic_file.h"

namespace eagle::rl {

namespace {

using support::ByteReader;
using support::ByteWriter;

// Version 2 added Sample::eval_stream (the per-sample evaluation RNG
// stream number used by the parallel evaluation path). Writers emit v2;
// the reader still accepts v1 checkpoints, defaulting eval_stream to 0.
// The version digit in the magic comes from kCheckpointFormatVersion
// (checkpoint.h) so the tag can never drift from the format constant.
std::string Magic(int version) {
  return "EAGLCKP" + std::string(1, static_cast<char>('0' + version));
}
constexpr std::string_view kEndMarker("EAGLCKPE", 8);

void WriteI32Vector(ByteWriter& out, const std::vector<std::int32_t>& v) {
  out.Put(static_cast<std::uint32_t>(v.size()));
  out.Write(v.data(), v.size() * sizeof(std::int32_t));
}

std::vector<std::int32_t> ReadI32Vector(ByteReader& in) {
  std::vector<std::int32_t> v(in.Count(sizeof(std::int32_t)));
  in.Read(v.data(), v.size() * sizeof(std::int32_t));
  return v;
}

void WriteSamples(ByteWriter& out, const std::vector<core::Sample>& samples) {
  out.Put(static_cast<std::uint32_t>(samples.size()));
  for (const core::Sample& sample : samples) {
    WriteI32Vector(out, sample.grouping);
    WriteI32Vector(out, sample.group_devices);
    out.Put(sample.logp, static_cast<std::int32_t>(sample.num_decisions),
            sample.eval_stream, static_cast<std::uint8_t>(sample.valid),
            sample.per_step_seconds, sample.reward, sample.advantage);
  }
}

std::vector<core::Sample> ReadSamples(ByteReader& in, int version) {
  // Smallest v1 sample: two empty vectors and the fixed-width fields.
  std::vector<core::Sample> samples(in.Count(45));
  for (core::Sample& sample : samples) {
    sample.grouping = ReadI32Vector(in);
    sample.group_devices = ReadI32Vector(in);
    sample.logp = in.Get<double>();
    sample.num_decisions = in.Get<std::int32_t>();
    if (version >= 2) sample.eval_stream = in.Get<std::uint64_t>();
    sample.valid = in.Get<std::uint8_t>() != 0;
    sample.per_step_seconds = in.Get<double>();
    sample.reward = in.Get<double>();
    sample.advantage = in.Get<double>();
  }
  return samples;
}

void WriteResult(ByteWriter& out, const TrainResult& result) {
  out.Put(static_cast<std::uint8_t>(result.found_valid),
          result.best_per_step_seconds, result.best_found_at_hours,
          result.total_virtual_hours,
          static_cast<std::int32_t>(result.invalid_samples),
          static_cast<std::int32_t>(result.total_samples));
  WriteI32Vector(out, result.best_placement.devices());
  out.Put(static_cast<std::uint32_t>(result.history.size()));
  for (const HistoryPoint& point : result.history) {
    out.Put(static_cast<std::int32_t>(point.sample_index),
            point.virtual_hours, point.per_step_seconds,
            point.best_so_far_seconds);
  }
}

TrainResult ReadResult(ByteReader& in) {
  TrainResult result;
  result.found_valid = in.Get<std::uint8_t>() != 0;
  result.best_per_step_seconds = in.Get<double>();
  result.best_found_at_hours = in.Get<double>();
  result.total_virtual_hours = in.Get<double>();
  result.invalid_samples = in.Get<std::int32_t>();
  result.total_samples = in.Get<std::int32_t>();
  result.best_placement = sim::Placement::FromRaw(ReadI32Vector(in));
  // Each point: an i32 index and three doubles.
  result.history.resize(in.Count(28));
  for (HistoryPoint& point : result.history) {
    point.sample_index = in.Get<std::int32_t>();
    point.virtual_hours = in.Get<double>();
    point.per_step_seconds = in.Get<double>();
    point.best_so_far_seconds = in.Get<double>();
  }
  return result;
}

// The environment section: a u64-length blob holding the environment's
// own state, empty when there is no environment.
void WriteEnvironment(ByteWriter& out, const core::Environment* environment) {
  ByteWriter state;
  if (environment != nullptr) environment->SaveState(state);
  out.PutBlob(state.bytes());
}

void ReadEnvironment(ByteReader& in, core::Environment* environment) {
  ByteReader state = in.Blob();
  if (environment != nullptr && state.ok() && !state.at_end()) {
    environment->LoadState(state);
    state.ExpectEnd();
  }
  in.Adopt(state);
}

// The section of the retired value-network critic: a u64-length blob the
// writer leaves empty. A non-empty one is state this build cannot restore,
// so it fails the load rather than resuming a run without it.
void ReadCriticSection(ByteReader& in) {
  const std::size_t at = in.offset();
  if (!in.Blob().at_end()) {
    in.Fail(at, "critic section holds " +
                    std::to_string(in.offset() - at - sizeof(std::uint64_t)) +
                    " bytes; the value-network critic is retired and its "
                    "section must be empty");
  }
}

}  // namespace

std::string CheckpointFilePath(const std::string& dir,
                               const std::string& name) {
  return dir + "/" + name + ".ckpt";
}

bool SaveCheckpoint(const std::string& path, const nn::ParamStore& params,
                    const nn::Adam& optimizer,
                    const core::Environment* environment,
                    const CheckpointData& data) {
  ByteWriter out;
  const std::string magic = Magic(kCheckpointFormatVersion);
  out.Write(magic.data(), magic.size());
  nn::SaveParams(params, out);
  optimizer.SaveState(out);
  out.Put(data.rng_state, data.baseline_value,
          static_cast<std::uint8_t>(data.baseline_initialized));
  WriteResult(out, data.result);
  WriteSamples(out, data.pool);
  WriteSamples(out, data.batch);
  out.Put(static_cast<std::int32_t>(data.since_ce));
  WriteEnvironment(out, environment);
  out.PutBlob({});  // the retired critic's section, always empty
  out.Write(kEndMarker.data(), kEndMarker.size());
  // The temp-file-then-rename dance lives in WriteFileAtomic: a crash at
  // any instant leaves the previous good checkpoint loadable.
  return support::WriteFileAtomic(path, [&out](std::ostream& file) {
    file.write(out.bytes().data(),
               static_cast<std::streamsize>(out.bytes().size()));
    return static_cast<bool>(file);
  });
}

support::Status LoadCheckpoint(const std::string& path,
                               nn::ParamStore& params, nn::Adam& optimizer,
                               core::Environment* environment,
                               CheckpointData* data) {
  std::ifstream file(path, std::ios::binary);
  std::string bytes;
  support::Status status =
      file ? support::ReadAll(file, &bytes)
           : support::Status::Error(support::ErrorCode::kIo,
                                    "cannot open checkpoint");
  if (!status.ok()) return status.At(path);

  ByteReader in(bytes, path);
  int version = kCheckpointFormatVersion;
  const std::string_view magic = in.Bytes(Magic(version).size());
  if (magic == Magic(version - 1)) --version;
  if (magic != Magic(version)) in.Fail(0, "bad checkpoint magic");
  nn::LoadParams(params, in);
  optimizer.LoadState(in);
  data->rng_state = in.Get<std::array<std::uint64_t, 4>>();
  data->baseline_value = in.Get<double>();
  data->baseline_initialized = in.Get<std::uint8_t>() != 0;
  data->result = ReadResult(in);
  data->pool = ReadSamples(in, version);
  data->batch = ReadSamples(in, version);
  data->since_ce = in.Get<std::int32_t>();
  ReadEnvironment(in, environment);
  ReadCriticSection(in);
  in.Expect(kEndMarker, "end marker");
  in.ExpectEnd();
  return in.status();
}

}  // namespace eagle::rl
