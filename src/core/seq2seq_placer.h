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

// The decisions of B sample lanes (B = 1 for a single decision).
struct PlacerRollout {
  std::vector<std::int32_t> devices;  // lane b's group g at b·k + g
  nn::Var log_prob;  // B×1: Σ_g log p(d_g | ...) per lane
  nn::Var entropy;   // B×1: mean per-step policy entropy per lane
};

class Seq2SeqPlacer {
 public:
  Seq2SeqPlacer() = default;
  Seq2SeqPlacer(nn::ParamStore& store, int input_dim, int hidden,
                int attn_dim, int device_embed_dim, int num_devices,
                AttentionVariant variant, support::Rng& rng);

  // One stacked rollout over B lanes: group_embeddings is (k·B)×F with
  // row g·B + b holding lane b's group g, and every encoder, attention
  // and decoder step runs once over the B lanes (one B-row GEMM where a
  // single decision runs a GEMV). Samples (rng set, `forced` empty; one
  // draw per lane per step, lanes in order) or scores forced[b], lane b's
  // k devices. Each lane's devices, log-prob and entropy are bit for bit
  // those of running it alone; only the order in which lanes' gradients
  // sum into shared nodes and parameters depends on B.
  PlacerRollout Run(nn::Tape& tape, nn::Var group_embeddings, int lanes,
                    support::Rng* rng,
                    std::span<const std::span<const std::int32_t>> forced)
      const;

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
