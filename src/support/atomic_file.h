// Crash-safe file writes: serialize into `<path>.tmp`, rename over
// `<path>` only once the stream is complete. A process killed mid-write
// can leave a stale temp file behind but never a truncated `<path>` —
// the guarantee the trainer's checkpoints (rl/checkpoint.cpp) and the
// artifacts the benches and tools write rely on.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace eagle::support {

// Creates parent directories, streams `writer` into `<path>.tmp` and
// atomically renames it to `path`. Returns false (after logging) if the
// temp file cannot be opened, `writer` returns false, the stream ends in
// a failed state, or the rename fails; `path` is left untouched in every
// failure case.
bool WriteFileAtomic(const std::string& path,
                     const std::function<bool(std::ostream&)>& writer);

}  // namespace eagle::support
