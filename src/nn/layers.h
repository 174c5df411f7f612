// Neural-network layers used by the agents: parameter store, linear,
// LSTM cell, bidirectional LSTM encoder, Bahdanau attention, graph
// convolution. Layers own Parameter handles in a ParamStore and emit tape
// ops on each forward call.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tape.h"
#include "support/rng.h"

namespace eagle::nn {

class ParamStore {
 public:
  ParamStore() = default;
  ParamStore(const ParamStore&) = delete;
  ParamStore& operator=(const ParamStore&) = delete;

  // Creates a zero-initialized parameter; name must be unique.
  Parameter* Create(const std::string& name, int rows, int cols);
  Parameter* Find(const std::string& name) const;

  const std::vector<std::unique_ptr<Parameter>>& params() const {
    return params_;
  }
  std::int64_t NumScalars() const;

  void ZeroGrads();
  // L2 norm over all gradients.
  double GradNorm() const;
  // Scales all gradients so the global norm is at most max_norm.
  // Returns the pre-clip norm.
  double ClipGradNorm(double max_norm);

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

// ---- initializers ----
void UniformInit(Tensor& t, float lo, float hi, support::Rng& rng);
// Glorot/Xavier uniform based on (rows, cols) fan.
void XavierInit(Tensor& t, support::Rng& rng);

class Linear {
 public:
  Linear() = default;
  Linear(ParamStore& store, const std::string& name, int in_dim, int out_dim,
         support::Rng& rng);

  Var Apply(Tape& tape, Var x) const;  // x: R×in -> R×out
  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  Parameter* w_ = nullptr;  // in×out
  Parameter* b_ = nullptr;  // 1×out
  int in_dim_ = 0;
  int out_dim_ = 0;
};

// Standard LSTM cell: one gate matmul, then the gate math as one tape op
// (Tape::LstmGates); forget-gate bias starts at 1.
class LstmCell {
 public:
  LstmCell() = default;
  LstmCell(ParamStore& store, const std::string& name, int in_dim, int hidden,
           support::Rng& rng);

  using State = LstmState;  // h and c are R×H

  // Zero state for a batch of `rows` sequences.
  State ZeroState(Tape& tape, int rows) const;
  State Step(Tape& tape, Var x, const State& prev) const;

  int hidden() const { return hidden_; }

 private:
  Parameter* w_ = nullptr;  // (in+H)×4H, gate order [i f g o]
  Parameter* b_ = nullptr;  // 1×4H
  int in_dim_ = 0;
  int hidden_ = 0;
};

// Bidirectional encoder: runs forward and backward LSTMs over B lanes of
// S-step sequences at once. The input is (S·B)×F with row t·B + b holding
// lane b's step t, each step's B rows one LSTM step; the states come back
// in the same layout. Every GEMM and LSTM op is row-wise, so each lane's
// states are bit for bit those of encoding its sequence alone (B = 1).
class BiLstmEncoder {
 public:
  BiLstmEncoder() = default;
  BiLstmEncoder(ParamStore& store, const std::string& name, int in_dim,
                int hidden, support::Rng& rng);

  struct Output {
    Var states;        // (S·B)×2H, row t·B + b
    LstmCell::State final_fwd;  // B×H
    LstmCell::State final_bwd;
  };
  Output Apply(Tape& tape, Var sequence, int lanes) const;

  int hidden() const { return fwd_.hidden(); }

 private:
  LstmCell fwd_;
  LstmCell bwd_;
};

// Bahdanau (additive) content-based attention:
//   score_i = vᵀ tanh(W_e e_i + W_d d);   context = Σ softmax(score)_i e_i,
// for B lanes at once: lane b's decoder state reads its own S encoder
// states, rows t·B + b of the lane-interleaved E (BiLstmEncoder's layout).
class BahdanauAttention {
 public:
  BahdanauAttention() = default;
  BahdanauAttention(ParamStore& store, const std::string& name, int enc_dim,
                    int dec_dim, int attn_dim, support::Rng& rng);

  // Precompute W_e·E once per sequence (E: (S·B)×enc_dim) — reused every
  // step.
  Var ProjectEncoder(Tape& tape, Var encoder_states) const;

  struct Result {
    Var context;  // B×enc_dim
    Var weights;  // B×S (softmax attention weights)
  };
  // decoder_state is B×dec_dim.
  Result Apply(Tape& tape, Var encoder_states, Var encoder_proj,
               Var decoder_state) const;

 private:
  Linear w_enc_;
  Linear w_dec_;
  Parameter* v_ = nullptr;  // attn×1
};

// Kipf & Welling graph convolution: relu(Â X W). Â is a constant input.
class GraphConv {
 public:
  GraphConv() = default;
  GraphConv(ParamStore& store, const std::string& name, int in_dim,
            int out_dim, support::Rng& rng);

  Var Apply(Tape& tape, Var normalized_adjacency, Var x,
            bool relu = true) const;

 private:
  Linear lin_;
};

}  // namespace eagle::nn
