// Sequence-to-sequence placer (§III-C, Fig. 3a): a bidirectional LSTM
// encoder over the group-embedding sequence and a unidirectional LSTM
// decoder emitting one device decision per group, with Bahdanau
// content-based attention applied either *before* the decoder cell
// (EAGLE's choice, Fig. 4a — context is part of the LSTM input) or
// *after* it (HP's choice, Fig. 4b — context joins the output projection).
#pragma once

#include <vector>

#include "core/categorical.h"
#include "core/run_config.h"
#include "nn/layers.h"
#include "support/rng.h"

namespace eagle::core {

struct PlacerRollout {
  std::vector<std::int32_t> devices;  // one per group
  nn::Var log_prob;  // 1×1: Σ_g log p(d_g | ...)
  nn::Var entropy;   // 1×1: mean per-step policy entropy
};

class Seq2SeqPlacer {
 public:
  Seq2SeqPlacer() = default;
  Seq2SeqPlacer(nn::ParamStore& store, int input_dim, int hidden,
                int attn_dim, int device_embed_dim, int num_devices,
                AttentionVariant variant, support::Rng& rng);

  // Samples (rng) or scores (forced, one device per row) a device sequence
  // for the k rows of group_embeddings, one Categorical step per group.
  PlacerRollout Run(nn::Tape& tape, nn::Var group_embeddings,
                    support::Rng* rng,
                    std::span<const std::int32_t> forced) const;

  int num_devices() const { return num_devices_; }
  AttentionVariant variant() const { return variant_; }

 private:
  nn::BiLstmEncoder encoder_;
  nn::LstmCell decoder_;
  nn::BahdanauAttention attention_;
  nn::Linear output_;
  nn::Parameter* device_embedding_ = nullptr;  // (D+1)×E; row D = <start>
  int num_devices_ = 0;
  int hidden_ = 0;
  AttentionVariant variant_ = AttentionVariant::kBefore;
};

}  // namespace eagle::core
