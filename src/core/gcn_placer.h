// GCN placer (§III-C, Fig. 3b): two graph-convolution layers over the
// group graph followed by a softmax head; all groups' devices are
// predicted simultaneously and independently — the property that costs it
// against the sequence-to-sequence placer in Table II (no conditioning on
// previous decisions).
#pragma once

#include "core/seq2seq_placer.h"  // PlacerRollout
#include "nn/layers.h"

namespace eagle::core {

class GcnPlacer {
 public:
  GcnPlacer() = default;
  GcnPlacer(nn::ParamStore& store, int input_dim, int hidden,
            int num_devices, support::Rng& rng);

  // `adjacency` is the constant normalized group adjacency Â (k×k).
  PlacerRollout Run(nn::Tape& tape, nn::Var group_embeddings, nn::Var adjacency,
                    support::Rng* rng,
                    std::span<const std::int32_t> forced) const;

 private:
  nn::GraphConv conv1_;
  nn::GraphConv conv2_;
  nn::Linear output_;
};

}  // namespace eagle::core
