// The bridge RNN — EAGLE's architectural contribution (§I, §III):
// "An extra RNN is introduced to transform parameters of the grouper into
//  inputs of the placer, linking the originally separated parts together."
//
// For each group g the bridge consumes
//   [ W2[:, g]ᵀ  ;  mean soft-assignment mass of g  ;  op-count share of g ]
// (the grouper's output-layer column plus its current usage statistics)
// and runs an LSTM across the group sequence. Its hidden states are
// concatenated onto the group embeddings the placer encoder reads, so the
// placer's policy gradient flows back into the grouper's parameters
// through a *continuous* path — in HP the only coupling is through the
// sampled (discrete, high-variance) grouping.
#pragma once

#include <span>

#include "core/grouper_ffn.h"
#include "nn/layers.h"

namespace eagle::core {

class BridgeRnn {
 public:
  BridgeRnn() = default;
  BridgeRnn(nn::ParamStore& store, int grouper_hidden, int bridge_hidden,
            support::Rng& rng);

  // Returns the conditioning states of B groupings (sample lanes) at once,
  // (num_groups·B) × bridge_hidden with row g·B + b holding lane b's group
  // g: the placer encoder's layout. `grouper_softmax` is the grouper's
  // num_ops × k soft assignment (a tape Var, so gradients reach the
  // grouper); `groupings` are the sampled discrete assignments the count
  // statistics read. The signatures and masses are the same for every
  // lane and are built once; each lane's states are bit for bit those of
  // running its grouping alone (B = 1).
  nn::Var Apply(nn::Tape& tape, const GrouperFFN& grouper,
                nn::Var grouper_softmax,
                std::span<const graph::Grouping> groupings) const;

  int hidden() const { return cell_.hidden(); }

 private:
  nn::LstmCell cell_;
};

}  // namespace eagle::core
