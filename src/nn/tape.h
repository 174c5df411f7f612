// Reverse-mode automatic differentiation on a define-by-run tape.
//
// Each forward op pushes a node holding its value and a backward closure;
// Backward(loss) seeds d(loss)=1 and replays closures in reverse order,
// accumulating gradients into node slots and — for leaves bound via
// Param() — into the persistent Parameter::grad buffers the optimizer
// consumes. The tape is rebuilt every forward pass (PPO recomputes log
// probabilities under current parameters each epoch). A live tape flushes
// subnormals on its thread (nn/float_mode.h).
#pragma once

#include <vector>

#include "nn/float_mode.h"
#include "nn/tensor.h"
#include "support/inplace_function.h"

namespace eagle::nn {

// A persistent, named, trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
};

// Handle into a Tape; invalidated by Tape::Reset().
struct Var {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
};

// An LSTM step's outputs: the hidden and cell states.
struct LstmState {
  Var h;
  Var c;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Clears all nodes (Vars from before are invalid afterwards). Nodes
  // are destroyed newest-first so their tensors return to the arena in
  // LIFO order — the next forward pass pops them back in request order.
  void Reset();
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Leaves.
  Var Input(Tensor value);          // constant (no gradient tracked)
  // Persistent leaf; grads accumulate into Parameter::grad. Calling
  // Param() twice for the same parameter on one tape returns the SAME
  // node (an LSTM unrolled for 256 steps must not copy its weight matrix
  // 256 times).
  Var Param(Parameter* parameter);

  // Per-tape memo of Vars a caller builds once and reuses for the rest of
  // the tape's life (a sample-invariant prefix shared by every decision
  // scored on one tape). Keyed by an address the caller owns; FindMemo
  // returns null for an absent key, and its pointer is valid until the
  // next Memoize or Reset. Like Param(), an entry holds the values of its
  // first use on this tape. A new tape and Reset() start empty, so no
  // entry names another tape's nodes.
  const std::vector<Var>* FindMemo(const void* key) const;
  void Memoize(const void* key, std::vector<Var> vars);

  const Tensor& value(Var v) const;
  const Tensor& grad(Var v) const;  // valid after Backward

  // ---- ops (shapes checked; gradients exact) ----
  Var MatMul(Var a, Var b);
  // Same shape, or b has R rows dividing a's and row r of a reads
  // b[r mod R] (R = 1: a row broadcast).
  Var Add(Var a, Var b);
  Var Sub(Var a, Var b);        // same shape
  Var Mul(Var a, Var b);        // elementwise, same shape
  Var Scale(Var a, float s);
  Var AddScalar(Var a, float s);
  Var Tanh(Var a);
  Var Sigmoid(Var a);
  Var Relu(Var a);
  Var Exp(Var a);
  Var MinElem(Var a, Var b);    // elementwise min, same shape
  Var Clamp(Var a, float lo, float hi);  // zero gradient outside [lo, hi]
  Var Softmax(Var a);           // row-wise
  Var LogSoftmax(Var a);        // row-wise, numerically stable
  Var Transpose(Var a);
  Var ConcatCols(Var a, Var b);
  Var ConcatRows(const std::vector<Var>& rows);  // all 1×C or R_i×C
  Var SliceCols(Var a, int c0, int c1);          // columns [c0, c1)
  Var SliceRows(Var a, int r0, int r1);          // rows [r0, r1) (copy)
  // out[i] = a[idx[i]]; an index may repeat (its gradients add in i order).
  Var GatherRows(Var a, std::vector<int> idx);
  Var Reshape(Var a, int rows, int cols);        // row-major, same size
  Var Sum(Var a);               // 1×1
  Var Mean(Var a);              // 1×1
  Var SumRows(Var a);           // R×C -> 1×C (column sums)
  Var RowSums(Var a);           // R×C -> R×1 (each row as Sum sums it)
  // out[r, 0] = a[r, idx[r]] — gathers per-row entries (picked log-probs).
  Var PickPerRow(Var a, std::vector<int> idx);
  // The lane product of B×S weights w and an (S·B)×C e whose row t·B + b
  // is lane b's step t: out[b] = Σ_t w[b, t] · e[t·B + b], folded over t
  // in ascending order from zero. Each lane computes exactly what
  // MatMul(w[b], e_b) computes for its own S×C block e_b, forward and
  // backward: dw folds each dot product from zero and adds it once, and
  // de takes one MulAdd per closure, as MatMul's queued dB fold does.
  Var LaneProduct(Var w, Var e);
  // An LSTM step's gate math on R×4H pre-activations `gates` in gate
  // order [i f g o] and the R×H cell state c: with i, f, o = σ and
  // g = tanh of the four column blocks, c' = (f·c) + (i·g) and
  // h' = o·tanh(c'). Values and gradients are those of the 13-op chain
  // it replaces (four SliceCols, three Sigmoid, two Tanh, three Mul and
  // an Add), byte for byte: every intermediate grad accumulates into zero
  // as its node's did, and c' takes its later consumers' contributions
  // before its own tanh path. The activations [i f g o tanh(c')] are kept
  // in one constant node ahead of c' and h'.
  LstmState LstmGates(Var gates, Var c);

  // Seeds d(loss)=1 (loss must be 1×1) and back-propagates.
  void Backward(Var loss);

 private:
  // Backward closures live inline in the node (no per-node heap block);
  // 64 bytes covers the largest capture (ConcatRows / PickPerRow: tape
  // pointer + a vector + two Vars ≈ 40 bytes).
  using BackwardFn = support::InplaceFunction<64>;

  struct Node {
    Tensor value;
    Tensor grad;                         // lazily sized at Backward
    BackwardFn backward;                 // may be empty for leaves
    Parameter* bound = nullptr;          // for Param leaves
    bool needs_grad = false;
    // Index into rhs_ once backward has used this node as a MatMul's
    // right operand, else -1. It fills the padding after needs_grad, so a
    // node stays 128 bytes.
    std::int32_t rhs = -1;
  };
  static_assert(sizeof(Node) <= 128, "a tape node should stay 128 bytes");

  // Backward state of one MatMul right operand B: bᵀ for every dA = G·Bᵀ,
  // built at B's first backward use and kept until Reset, and the FIFO of
  // products whose dB += Aᵀ·G is not folded into B's grad yet.
  struct RightOperand {
    Tensor transposed;
    std::int32_t head = -1;  // first queued product in queued_, or -1
    std::int32_t tail = -1;
  };
  // One queued dB product: A's node, the MatMul output node whose grad is
  // G, and the next product queued on the same B (-1 at the tail).
  struct QueuedProduct {
    std::int32_t a;
    std::int32_t g;
    std::int32_t next;
  };

  Var Push(Tensor value, bool needs_grad, BackwardFn backward);
  Node& node(Var v);
  const Node& node(Var v) const;
  Tensor& GradStorage(Node& n);
  // The grad an op's backward writes into; folds the node's queued
  // products first, so contributions land in backward order.
  Tensor& GradRef(Var v);
  RightOperand& Rhs(Var b);
  void FlushQueued(Node& b);

  // First member: constructed before any node and destroyed after the
  // last, so every op, Backward, and whatever the caller runs while the
  // tape is alive executes with subnormals flushed (nn/float_mode.h).
  FlushDenormalsScope float_mode_;
  std::vector<Node> nodes_;
  std::vector<std::pair<Parameter*, Var>> param_cache_;
  std::vector<std::pair<const void*, std::vector<Var>>> memo_;
  // Declared after nodes_, so the transposed copies return to the arena
  // before the nodes' buffers on destruction, as in Reset.
  std::vector<RightOperand> rhs_;
  std::vector<QueuedProduct> queued_;  // emptied by every Backward
  std::vector<const float*> a_rows_;   // FlushQueued's row pointers
  std::vector<const float*> g_rows_;
};

}  // namespace eagle::nn
