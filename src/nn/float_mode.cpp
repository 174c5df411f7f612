#include "nn/float_mode.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

namespace eagle::nn {
namespace {

#if defined(__x86_64__) || defined(_M_X64)

constexpr std::uint64_t kFlushBits = 0x8040;  // MXCSR.FTZ (15) | DAZ (6)

std::uint64_t ReadControl() { return _mm_getcsr(); }
void WriteControl(std::uint64_t value) {
  _mm_setcsr(static_cast<unsigned int>(value));
}

#elif defined(__aarch64__)

constexpr std::uint64_t kFlushBits = std::uint64_t{1} << 24;  // FPCR.FZ

std::uint64_t ReadControl() {
  std::uint64_t value = 0;
  __asm__ __volatile__("mrs %0, fpcr" : "=r"(value));
  return value;
}
void WriteControl(std::uint64_t value) {
  __asm__ __volatile__("msr fpcr, %0" : : "r"(value));
}

#else

constexpr std::uint64_t kFlushBits = 0;

std::uint64_t ReadControl() { return 0; }
void WriteControl(std::uint64_t) {}

#endif

}  // namespace

FlushDenormalsScope::FlushDenormalsScope() : saved_(ReadControl()) {
  WriteControl(saved_ | kFlushBits);
}

FlushDenormalsScope::~FlushDenormalsScope() { WriteControl(saved_); }

bool DenormalsFlushed() {
  return kFlushBits != 0 && (ReadControl() & kFlushBits) == kFlushBits;
}

}  // namespace eagle::nn
