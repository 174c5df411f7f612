#include "nn/layers.h"

#include <cmath>

#include "support/check.h"

namespace eagle::nn {

Parameter* ParamStore::Create(const std::string& name, int rows, int cols) {
  EAGLE_CHECK_MSG(Find(name) == nullptr, "duplicate parameter " << name);
  // One-time parameter construction at model-build time; parameters are
  // long-lived (they outlive every forward/backward pass), so the tensor
  // arena — a per-step scratch pool — is the wrong owner for them.
  // eagle-lint: allow(HP02)
  auto p = std::make_unique<Parameter>();
  p->name = name;
  p->value = Tensor(rows, cols);
  p->grad = Tensor(rows, cols);
  params_.push_back(std::move(p));
  return params_.back().get();
}

Parameter* ParamStore::Find(const std::string& name) const {
  for (const auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

std::int64_t ParamStore::NumScalars() const {
  std::int64_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

void ParamStore::ZeroGrads() {
  for (const auto& p : params_) p->grad.Fill(0.0f);
}

double ParamStore::GradNorm() const {
  double acc = 0.0;
  for (const auto& p : params_) acc += SquaredNorm(p->grad);
  return std::sqrt(acc);
}

double ParamStore::ClipGradNorm(double max_norm) {
  const double norm = GradNorm();
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (const auto& p : params_) {
      float* d = p->grad.data();
      for (std::int64_t i = 0; i < p->grad.size(); ++i) d[i] *= scale;
    }
  }
  return norm;
}

void UniformInit(Tensor& t, float lo, float hi, support::Rng& rng) {
  float* d = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    d[i] = lo + (hi - lo) * rng.NextFloat();
  }
}

void XavierInit(Tensor& t, support::Rng& rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(t.rows() + t.cols()));
  UniformInit(t, -bound, bound, rng);
}

Linear::Linear(ParamStore& store, const std::string& name, int in_dim,
               int out_dim, support::Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  w_ = store.Create(name + "/w", in_dim, out_dim);
  b_ = store.Create(name + "/b", 1, out_dim);
  XavierInit(w_->value, rng);
}

Var Linear::Apply(Tape& tape, Var x) const {
  EAGLE_CHECK(w_ != nullptr);
  return tape.Add(tape.MatMul(x, tape.Param(w_)), tape.Param(b_));
}

LstmCell::LstmCell(ParamStore& store, const std::string& name, int in_dim,
                   int hidden, support::Rng& rng)
    : in_dim_(in_dim), hidden_(hidden) {
  w_ = store.Create(name + "/w", in_dim + hidden, 4 * hidden);
  b_ = store.Create(name + "/b", 1, 4 * hidden);
  XavierInit(w_->value, rng);
  // Forget-gate bias 1.0 (standard trick for gradient flow through time).
  for (int c = hidden; c < 2 * hidden; ++c) b_->value.at(0, c) = 1.0f;
}

LstmCell::State LstmCell::ZeroState(Tape& tape, int rows) const {
  return State{tape.Input(Tensor(rows, hidden_)),
               tape.Input(Tensor(rows, hidden_))};
}

LstmCell::State LstmCell::Step(Tape& tape, Var x, const State& prev) const {
  EAGLE_CHECK(w_ != nullptr);
  Var xh = tape.ConcatCols(x, prev.h);
  Var gates = tape.Add(tape.MatMul(xh, tape.Param(w_)), tape.Param(b_));
  return tape.LstmGates(gates, prev.c);
}

BiLstmEncoder::BiLstmEncoder(ParamStore& store, const std::string& name,
                             int in_dim, int hidden, support::Rng& rng)
    : fwd_(store, name + "/fwd", in_dim, hidden, rng),
      bwd_(store, name + "/bwd", in_dim, hidden, rng) {}

BiLstmEncoder::Output BiLstmEncoder::Apply(Tape& tape, Var sequence,
                                           int lanes) const {
  const int rows = tape.value(sequence).rows();
  EAGLE_CHECK(lanes >= 1 && rows >= lanes && rows % lanes == 0);
  const int steps = rows / lanes;
  std::vector<Var> fwd_states(static_cast<std::size_t>(steps));
  std::vector<Var> bwd_states(static_cast<std::size_t>(steps));
  LstmCell::State fs = fwd_.ZeroState(tape, lanes);
  for (int t = 0; t < steps; ++t) {
    fs = fwd_.Step(tape, tape.SliceRows(sequence, t * lanes, (t + 1) * lanes),
                   fs);
    fwd_states[static_cast<std::size_t>(t)] = fs.h;
  }
  LstmCell::State bs = bwd_.ZeroState(tape, lanes);
  for (int t = steps - 1; t >= 0; --t) {
    bs = bwd_.Step(tape, tape.SliceRows(sequence, t * lanes, (t + 1) * lanes),
                   bs);
    bwd_states[static_cast<std::size_t>(t)] = bs.h;
  }
  Var fwd_all = tape.ConcatRows(fwd_states);
  Var bwd_all = tape.ConcatRows(bwd_states);
  return Output{tape.ConcatCols(fwd_all, bwd_all), fs, bs};
}

BahdanauAttention::BahdanauAttention(ParamStore& store,
                                     const std::string& name, int enc_dim,
                                     int dec_dim, int attn_dim,
                                     support::Rng& rng)
    : w_enc_(store, name + "/enc", enc_dim, attn_dim, rng),
      w_dec_(store, name + "/dec", dec_dim, attn_dim, rng) {
  v_ = store.Create(name + "/v", attn_dim, 1);
  XavierInit(v_->value, rng);
}

Var BahdanauAttention::ProjectEncoder(Tape& tape, Var encoder_states) const {
  return w_enc_.Apply(tape, encoder_states);  // S×attn
}

BahdanauAttention::Result BahdanauAttention::Apply(Tape& tape,
                                                   Var encoder_states,
                                                   Var encoder_proj,
                                                   Var decoder_state) const {
  EAGLE_CHECK(v_ != nullptr);
  const int lanes = tape.value(decoder_state).rows();
  const int steps = tape.value(encoder_states).rows() / lanes;
  Var dec_proj = w_dec_.Apply(tape, decoder_state);  // B×attn
  // Row t·B + b adds lane b's projection.
  Var pre = tape.Tanh(tape.Add(encoder_proj, dec_proj));  // (S·B)×attn
  Var scores = tape.Transpose(tape.Reshape(
      tape.MatMul(pre, tape.Param(v_)), steps, lanes));  // B×S
  Var weights = tape.Softmax(scores);
  Var context = tape.LaneProduct(weights, encoder_states);  // B×enc_dim
  return Result{context, weights};
}

GraphConv::GraphConv(ParamStore& store, const std::string& name, int in_dim,
                     int out_dim, support::Rng& rng)
    : lin_(store, name, in_dim, out_dim, rng) {}

Var GraphConv::Apply(Tape& tape, Var normalized_adjacency, Var x,
                     bool relu) const {
  Var mixed = tape.MatMul(normalized_adjacency, lin_.Apply(tape, x));
  return relu ? tape.Relu(mixed) : mixed;
}

}  // namespace eagle::nn
