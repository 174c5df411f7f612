#include "support/byte_io.h"

#include <cstring>
#include <istream>
#include <sstream>
#include <utility>

namespace eagle::support {

ByteReader::ByteReader(std::string_view bytes, std::string source)
    : bytes_(bytes), source_(std::move(source)), end_(bytes.size()) {}

void ByteReader::Read(void* out, std::size_t size) {
  const std::string_view in = Bytes(size);
  if (!in.empty()) std::memcpy(out, in.data(), in.size());
}

std::string_view ByteReader::Bytes(std::size_t size) {
  if (ok() && size > Left()) {
    Fail(pos_, "truncated: " + std::to_string(size) + " bytes needed, " +
                   std::to_string(Left()) + " left");
  }
  if (!ok()) return {};
  pos_ += size;
  return bytes_.substr(pos_ - size, size);
}

void ByteReader::Expect(std::string_view bytes, const std::string& what) {
  const std::size_t at = pos_;
  if (Bytes(bytes.size()) != bytes) Fail(at, "bad " + what);
}

bool ByteReader::Fits(std::size_t at, std::uint64_t count,
                      std::size_t min_bytes) {
  if (ok() && count > Left() / min_bytes) {
    Fail(at,
         "size " + std::to_string(count) + " exceeds the " +
             std::to_string(Left()) + " bytes left",
         ErrorCode::kResourceLimit);
  }
  return ok();
}

std::uint32_t ByteReader::Count(std::size_t min_bytes) {
  const std::size_t at = pos_;
  const auto count = Get<std::uint32_t>();
  return Fits(at, count, min_bytes) ? count : 0;
}

void ByteReader::ExpectCount(std::size_t expected, std::size_t min_bytes,
                             const std::string& what) {
  const std::size_t at = pos_;
  if (Count(min_bytes) != expected) {
    Fail(at, "expected " + std::to_string(expected) + " " + what);
  }
}

std::string_view ByteReader::Name() {
  const std::size_t at = pos_;
  const auto size = Get<std::uint32_t>();
  return Fits(at, size, 1) ? Bytes(size) : std::string_view();
}

ByteReader ByteReader::Blob() {
  const std::size_t at = pos_;
  const auto size = Get<std::uint64_t>();
  if (!Fits(at, size, 1)) return *this;
  ByteReader blob = *this;
  pos_ += size;
  blob.end_ = pos_;
  return blob;
}

void ByteReader::Adopt(const ByteReader& blob) {
  if (ok()) status_ = blob.status_;
}

void ByteReader::ExpectEnd() {
  if (ok() && !at_end()) Fail(pos_, std::to_string(Left()) + " bytes unread");
}

void ByteReader::Fail(std::size_t offset, const std::string& message,
                      ErrorCode code) {
  if (!ok()) return;
  const std::string text = "byte " + std::to_string(offset) + ": " + message;
  status_ = Status::Error(code, text).At(source_);
}

Status ReadAll(std::istream& in, std::string* bytes) {
  // Peek first: `buffer << in.rdbuf()` sets failbit on `buffer` both for
  // an empty input and for a failed read (and leaves `in` untouched), so
  // only the peek, which sets badbit on `in`, tells the two apart.
  std::ostringstream buffer;
  const bool empty = in.peek() == std::char_traits<char>::eof();
  if (in.bad() || (!empty && !(buffer << in.rdbuf()))) {
    return Status::Error(ErrorCode::kIo, "read error");
  }
  *bytes = std::move(buffer).str();
  return Status::Ok();
}

}  // namespace eagle::support
