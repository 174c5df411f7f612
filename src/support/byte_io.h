// The one binary codec for saved training state: agent parameters, Adam
// slots, environment and critic state and the trainer's checkpoint
// sections (rl/checkpoint.h) are all written through ByteWriter and read
// back through ByteReader.
//
// Fields are native-endian (little endian on every supported target) and
// come in four shapes: fixed-width values, raw byte runs, names (u32
// length + bytes) and blobs (u64 length + bytes).
//
// ByteReader treats its input as untrusted. Every read is bounds-checked,
// and every count and length is checked against the bytes left before the
// caller can allocate for it. The first failure is kept as a
// support::Status naming the source and the byte offset, e.g.
// `run.ckpt: [resource-limit] byte 16: size 4294967295 exceeds the 500
// bytes left`.
// Reads after a failure return zeros and empty views and copy nothing,
// so a decoder reads straight through and checks status() once, at the
// end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

#include "support/status.h"

namespace eagle::support {

class ByteWriter {
 public:
  // Fixed-width fields, in argument order.
  template <typename... T>
  void Put(const T&... values) {
    static_assert((std::is_trivially_copyable_v<T> && ...));
    (Write(&values, sizeof(values)), ...);
  }
  void Write(const void* data, std::size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }
  void PutName(std::string_view name) {
    Put(static_cast<std::uint32_t>(name.size()));
    Write(name.data(), name.size());
  }
  void PutBlob(std::string_view blob) {
    Put(static_cast<std::uint64_t>(blob.size()));
    Write(blob.data(), blob.size());
  }

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class ByteReader {
 public:
  // `bytes` must outlive the reader; `source` names every diagnostic.
  ByteReader(std::string_view bytes, std::string source);

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    Read(&value, sizeof(value));
    return value;
  }
  // Copies the next `size` bytes to `out`; leaves it alone once failed.
  void Read(void* out, std::size_t size);
  // The next `size` bytes, without copying.
  std::string_view Bytes(std::size_t size);
  // Fixed bytes such as a magic; kSyntax "bad <what>" when they differ.
  void Expect(std::string_view bytes, const std::string& what);
  // A u32 element count; kResourceLimit when `count × min_bytes` exceeds
  // the bytes left (min_bytes ≥ 1: the smallest encoded element).
  std::uint32_t Count(std::size_t min_bytes);
  // A count that must equal `expected`; kSyntax "expected <n> <what>".
  void ExpectCount(std::size_t expected, std::size_t min_bytes,
                   const std::string& what);
  // A u32-length name; kResourceLimit when the length exceeds the bytes
  // left.
  std::string_view Name();
  // A u64-length blob, returned as a reader over exactly its bytes that
  // keeps this reader's offsets. Decode the blob through it, then hand it
  // back to Adopt().
  ByteReader Blob();
  // Takes over the failure of a reader returned by Blob().
  void Adopt(const ByteReader& blob);
  // kSyntax when bytes are left unread.
  void ExpectEnd();

  // Records a failure at byte `offset`; only the first one is kept.
  void Fail(std::size_t offset, const std::string& message,
            ErrorCode code = ErrorCode::kSyntax);

  std::size_t offset() const { return pos_; }
  bool at_end() const { return pos_ == end_; }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  std::size_t Left() const { return end_ - pos_; }
  // kResourceLimit at `at` unless `count × min_bytes` fits in the bytes
  // left.
  bool Fits(std::size_t at, std::uint64_t count, std::size_t min_bytes);

  std::string_view bytes_;
  std::string source_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  Status status_;
};

// Reads all of `in` into *bytes; kIo "read error" when reading fails. An
// empty input is no error.
Status ReadAll(std::istream& in, std::string* bytes);

}  // namespace eagle::support
