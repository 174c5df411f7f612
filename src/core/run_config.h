// Shared agent/benchmark configuration for benches and examples.
//
// Paper-scale hyperparameters (§IV-C): 256 groups, 2×64-unit grouper FFN,
// 512-unit LSTM placer. The defaults here are scaled down so full training
// sweeps run on a single CPU core in minutes; pass --full to benches to
// restore paper-scale agent dimensions.
#pragma once

namespace eagle::core {

// State-vector encoding; see core/group_embedding.h.
enum class FeatureMode {
  kRaw,            // Hierarchical-Planner style: raw counts and byte sums
  kReconstructed,  // EAGLE style: log-scaled volumes, normalized adjacency
};

enum class AttentionVariant {
  kBefore,  // context fed INTO the decoder LSTM (EAGLE's choice, Fig. 4a)
  kAfter,   // context combined AFTER the decoder LSTM (HP's choice, Fig. 4b)
};

const char* AttentionVariantName(AttentionVariant variant);

struct AgentDims {
  int num_groups = 24;
  int grouper_hidden = 24;   // paper: 64
  int placer_hidden = 64;    // paper: 512
  int attn_dim = 32;
  int bridge_hidden = 16;
  int device_embed_dim = 8;

  // Paper-scale dimensions (§IV-C).
  static AgentDims PaperScale() {
    AgentDims dims;
    dims.num_groups = 256;
    dims.grouper_hidden = 64;
    dims.placer_hidden = 512;
    dims.attn_dim = 256;
    dims.bridge_hidden = 64;
    dims.device_embed_dim = 32;
    return dims;
  }
};

}  // namespace eagle::core
