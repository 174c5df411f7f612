// Adam optimizer (Kingma & Ba) over a ParamStore.
//
// The paper trains agents with Adam, lr 0.01, gradients clipped by norm at
// 1.0 (§IV-C) — those are the defaults here.
#pragma once

#include <vector>

#include "nn/layers.h"
#include "support/byte_io.h"

namespace eagle::nn {

struct AdamOptions {
  double lr = 0.01;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double clip_norm = 1.0;  // <=0 disables clipping
};

class Adam {
 public:
  explicit Adam(ParamStore& store, AdamOptions options = {});

  // Clips gradients, applies one update, zeroes gradients.
  // Returns the pre-clip gradient norm (for logging).
  double Step();

  std::int64_t step_count() const { return t_; }
  const AdamOptions& options() const { return options_; }
  void set_lr(double lr) { options_.lr = lr; }

  // The step count and per-parameter moment slots, so training
  // checkpoints resume bit-compatibly. Layout (native endian):
  //   i64 step | u32 count | per param, in store order:
  //     u32 name_len | name bytes | u8 has_slot | [f32 m… | f32 v…]
  // A section that does not list exactly the store's parameters, in
  // order, fails `in` with kSyntax.
  void SaveState(support::ByteWriter& out) const;
  void LoadState(support::ByteReader& in);

 private:
  struct Slot {
    Tensor m;
    Tensor v;
  };
  ParamStore* store_;
  AdamOptions options_;
  // Parallel to store_->params() order (parameters are append-only), so
  // Step() walks a flat array instead of hashing pointers.
  std::vector<Slot> slots_;
  std::int64_t t_ = 0;
};

}  // namespace eagle::nn
