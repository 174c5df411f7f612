// A small unrolled LSTM chain that drives every route of Tape::MatMul's
// backward, shared by the queue's byte oracle (test_autograd) and the
// arena rebuild test (test_kernels):
//   - the cell weight W is the right operand of every step's MatMul, and
//     one SliceRows(W, r, r + 1) taken between two steps writes W's
//     gradient outside the queue;
//   - a non-leaf E = tanh(x·W_enc) is the right operand of one attention
//     MatMul per step and is also read by SliceRows() on every third step;
//   - W_enc is the right operand of two MatMuls of 6 and 3 rows, and the
//     first step's attention left operand needs no gradient.
// RecordingTape logs each op in creation order so an oracle can replay
// the backward op by op. GateChain, the LSTM gate math as 13 tape ops,
// is also the oracle Tape::LstmGates is held to (test_autograd,
// tests/seq2seq_oracle.h) and the baseline of bench_micro's lstm_step
// rows.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "nn/tape.h"
#include "support/rng.h"

namespace eagle::nn::chain {

enum class OpKind {
  kMatMul,
  kAdd,
  kMul,
  kSigmoid,
  kTanh,
  kSliceCols,
  kConcatCols,
  kSliceRows,
  kSum,
};

struct RecordedOp {
  OpKind kind;
  Var out;
  Var a;
  Var b;        // invalid for unary ops
  int arg = 0;  // SliceCols' first column, SliceRows' first row
};

// Forwards each op to the tape and logs it. Clear() keeps the log's
// capacity, so a rebuilt chain allocates nothing here.
class RecordingTape {
 public:
  explicit RecordingTape(Tape& tape) : tape_(tape) {}

  Tape& tape() { return tape_; }
  const std::vector<RecordedOp>& ops() const { return ops_; }
  bool needs_grad(Var v) const {
    return needs_grad_[static_cast<std::size_t>(v.id)] != 0;
  }
  void Clear() {
    ops_.clear();
    needs_grad_.clear();
  }

  Var Input(Tensor value) { return Mark(tape_.Input(std::move(value)), false); }
  Var Param(Parameter* p) { return Mark(tape_.Param(p), true); }
  Var MatMul(Var a, Var b) { return Log(OpKind::kMatMul, tape_.MatMul(a, b), a, b); }
  Var Add(Var a, Var b) { return Log(OpKind::kAdd, tape_.Add(a, b), a, b); }
  Var Mul(Var a, Var b) { return Log(OpKind::kMul, tape_.Mul(a, b), a, b); }
  Var Sigmoid(Var a) { return Log(OpKind::kSigmoid, tape_.Sigmoid(a), a); }
  Var Tanh(Var a) { return Log(OpKind::kTanh, tape_.Tanh(a), a); }
  Var SliceCols(Var a, int c0, int c1) {
    return Log(OpKind::kSliceCols, tape_.SliceCols(a, c0, c1), a, Var{}, c0);
  }
  Var ConcatCols(Var a, Var b) {
    return Log(OpKind::kConcatCols, tape_.ConcatCols(a, b), a, b);
  }
  Var SliceRows(Var a, int r0, int r1) {
    return Log(OpKind::kSliceRows, tape_.SliceRows(a, r0, r1), a, Var{}, r0);
  }
  Var Sum(Var a) { return Log(OpKind::kSum, tape_.Sum(a), a); }

 private:
  Var Mark(Var v, bool needs_grad) {
    needs_grad_.resize(static_cast<std::size_t>(v.id) + 1, 0);
    needs_grad_[static_cast<std::size_t>(v.id)] = needs_grad ? 1 : 0;
    return v;
  }
  Var Log(OpKind kind, Var out, Var a, Var b = Var{}, int arg = 0) {
    ops_.push_back(RecordedOp{kind, out, a, b, arg});
    return Mark(out, needs_grad(a) || (b.valid() && needs_grad(b)));
  }

  Tape& tape_;
  std::vector<RecordedOp> ops_;
  std::vector<char> needs_grad_;
};

constexpr int kEncRows = 6;   // rows of E
constexpr int kEncIn = 5;     // features per encoder row
constexpr int kEncDim = 12;   // columns of E
constexpr int kHidden = 20;   // 4·kHidden = 80 gate columns: past one GEMV tile
constexpr int kSteps = 9;
constexpr int kRowStep = 3;   // W's row kWRow is sliced after this step
constexpr int kWRow = 5;

struct ChainNet {
  Parameter w;      // (2·kEncDim + kHidden) × 4·kHidden
  Parameter bias;   // 1 × 4·kHidden
  Parameter w_enc;  // kEncIn × kEncDim
  Tensor enc_in;    // kEncRows × kEncIn
  Tensor side_in;   // 3 × kEncIn
};

inline Tensor RandomTensor(int rows, int cols, support::Rng& rng) {
  Tensor t(rows, cols);
  UniformInit(t, -0.5f, 0.5f, rng);
  return t;
}

inline ChainNet MakeChainNet(std::uint64_t seed) {
  support::Rng rng(seed);
  const int in = 2 * kEncDim + kHidden;
  ChainNet net;
  net.w = {"w", RandomTensor(in, 4 * kHidden, rng), Tensor(in, 4 * kHidden)};
  net.bias = {"bias", RandomTensor(1, 4 * kHidden, rng),
              Tensor(1, 4 * kHidden)};
  net.w_enc = {"w_enc", RandomTensor(kEncIn, kEncDim, rng),
               Tensor(kEncIn, kEncDim)};
  net.enc_in = RandomTensor(kEncRows, kEncIn, rng);
  net.side_in = RandomTensor(3, kEncIn, rng);
  return net;
}

// The gate math of one LSTM step as LstmCell::Step spelled it before
// Tape::LstmGates fused it: 13 ops after the gate MatMul and bias Add on
// R×4H pre-activations in gate order [i f g o]. T is a Tape or a
// RecordingTape. Returns {h', c'}.
template <typename T>
LstmState GateChain(T& t, Var gates, Var c, int h_dim) {
  Var i = t.Sigmoid(t.SliceCols(gates, 0, h_dim));
  Var f = t.Sigmoid(t.SliceCols(gates, h_dim, 2 * h_dim));
  Var g = t.Tanh(t.SliceCols(gates, 2 * h_dim, 3 * h_dim));
  Var o = t.Sigmoid(t.SliceCols(gates, 3 * h_dim, 4 * h_dim));
  c = t.Add(t.Mul(f, c), t.Mul(i, g));
  return LstmState{t.Mul(o, t.Tanh(c)), c};
}

// Records the chain's forward and returns its scalar loss.
inline Var BuildChain(RecordingTape& t, ChainNet& net) {
  const int h_dim = kHidden;
  Var w = t.Param(&net.w);
  Var bias = t.Param(&net.bias);
  Var w_enc = t.Param(&net.w_enc);
  Var enc = t.Tanh(t.MatMul(t.Input(net.enc_in), w_enc));
  Var side = t.MatMul(t.Input(net.side_in), w_enc);
  Var h = t.Input(Tensor(1, h_dim));
  Var c = t.Input(Tensor(1, h_dim));
  Var w_row;
  for (int step = 0; step < kSteps; ++step) {
    Var ctx = t.MatMul(t.SliceCols(h, 0, kEncRows), enc);
    Var x = t.ConcatCols(
        ctx, step % 3 == 0
                 ? t.SliceRows(enc, step % kEncRows, step % kEncRows + 1)
                 : ctx);
    Var gates = t.Add(t.MatMul(t.ConcatCols(x, h), w), bias);
    const LstmState next = GateChain(t, gates, c, h_dim);
    h = next.h;
    c = next.c;
    if (step == kRowStep) w_row = t.SliceRows(w, kWRow, kWRow + 1);
  }
  return t.Add(t.Sum(h), t.Add(t.Sum(t.Tanh(w_row)), t.Sum(side)));
}

}  // namespace eagle::nn::chain
