#include "support/rng.h"

#include <cmath>

namespace eagle::support {

Rng Rng::Split(std::uint64_t stream) const {
  // Fold the full 256-bit state down to one word, then run it through
  // SplitMix64 together with the stream index. SplitMix64's output mixing
  // decorrelates consecutive stream indices, and Rng's constructor expands
  // the result through SplitMix64 again to seed the child's xoshiro state.
  std::uint64_t folded = s_[0];
  folded = (folded ^ Rotl(s_[1], 17)) * 0x9e3779b97f4a7c15ULL;
  folded = (folded ^ Rotl(s_[2], 31)) * 0xbf58476d1ce4e5b9ULL;
  folded = (folded ^ Rotl(s_[3], 47)) * 0x94d049bb133111ebULL;
  SplitMix64 sm(folded + stream);
  return Rng(sm.Next());
}

std::uint64_t Rng::NextBelow(std::uint64_t n) {
  EAGLE_CHECK(n > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  EAGLE_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextGaussian() {
  // Box-Muller; draw until u1 is non-zero to keep log() finite.
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double two_pi = 6.28318530717958647692;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
}

std::size_t Rng::NextFromProbs(const float* probs, std::size_t n) {
  EAGLE_CHECK(n > 0);
  double r = NextDouble();
  for (std::size_t i = 0; i < n; ++i) {
    r -= static_cast<double>(probs[i]);
    if (r < 0.0) return i;
  }
  return n - 1;
}

}  // namespace eagle::support
