// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in this repository (graph partitioners,
// neural-network initializers, RL policy sampling, environment noise)
// draws from an explicitly seeded eagle::support::Rng so that benches and
// tests regenerate identical tables for a given --seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/check.h"

namespace eagle::support {

// SplitMix64: used to expand a single user seed into stream seeds.
// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, 256-bit state.
// Suitable for simulation work; not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.Next();
  }

  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }

  // Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t NextBelow(std::uint64_t n);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  // Standard normal via Box-Muller (no cached spare; deterministic order).
  double NextGaussian();

  // Sample an index from a row of probabilities (assumed to sum to ~1).
  std::size_t NextFromProbs(const float* probs, std::size_t n);

  // Fisher-Yates in-place shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBelow(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Derive an independent child stream (for per-component seeding),
  // advancing this generator by one draw.
  Rng Split() { return Rng(NextU64()); }

  // Derive child stream number `stream` from the *current* state without
  // advancing it. Distinct streams (and distinct parent states) yield
  // independent children; the same (state, stream) pair always yields the
  // same child. The trainer splits one stream per minibatch sample this
  // way, so evaluations can run on any thread in any order while the
  // parent stream — and therefore the whole run — stays bit-reproducible.
  Rng Split(std::uint64_t stream) const;

  // Raw generator state, for crash-safe checkpoint/resume: restoring the
  // state continues the stream bit-compatibly.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& state) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = state[i];
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

}  // namespace eagle::support
