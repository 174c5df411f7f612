// Numerical gradient checks for every tape op: the analytic gradient from
// Tape::Backward must match central finite differences on random inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "nn/layers.h"
#include "nn/naive_ref.h"
#include "nn/tape.h"
#include "support/rng.h"
#include "tests/arena_poison.h"
#include "tests/lstm_chain_net.h"

namespace eagle::nn {
namespace {

// Builds a scalar loss from parameter `p` via `body`, then compares
// d(loss)/dp against central differences.
void GradCheck(int rows, int cols,
               const std::function<Var(Tape&, Var)>& body,
               double tolerance = 2e-2, std::uint64_t seed = 1) {
  support::Rng rng(seed);
  Parameter p;
  p.name = "p";
  p.value = Tensor(rows, cols);
  p.grad = Tensor(rows, cols);
  UniformInit(p.value, -1.0f, 1.0f, rng);

  auto eval = [&]() {
    Tape tape;
    Var loss = body(tape, tape.Param(&p));
    return static_cast<double>(tape.value(loss).at(0, 0));
  };

  // Analytic gradients.
  p.grad.Fill(0.0f);
  {
    Tape tape;
    Var loss = body(tape, tape.Param(&p));
    tape.Backward(loss);
  }

  const float eps = 1e-3f;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const float saved = p.value.at(r, c);
      p.value.at(r, c) = saved + eps;
      const double up = eval();
      p.value.at(r, c) = saved - eps;
      const double down = eval();
      p.value.at(r, c) = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = p.grad.at(r, c);
      const double scale = std::max({1.0, std::abs(numeric),
                                     std::abs(analytic)});
      EXPECT_NEAR(analytic / scale, numeric / scale, tolerance)
          << "at (" << r << "," << c << ")";
    }
  }
}

Tensor RandomTensor(int rows, int cols, std::uint64_t seed) {
  support::Rng rng(seed);
  Tensor t(rows, cols);
  UniformInit(t, -1.0f, 1.0f, rng);
  return t;
}

TEST(Autograd, MatMulLeft) {
  const Tensor other = RandomTensor(4, 3, 2);
  GradCheck(3, 4, [&](Tape& t, Var p) {
    return t.Sum(t.MatMul(p, t.Input(other)));
  });
}

TEST(Autograd, MatMulRight) {
  const Tensor other = RandomTensor(3, 4, 3);
  GradCheck(4, 2, [&](Tape& t, Var p) {
    return t.Sum(t.MatMul(t.Input(other), p));
  });
}

TEST(Autograd, MatMulBothSides) {
  GradCheck(3, 3, [&](Tape& t, Var p) {
    return t.Sum(t.MatMul(p, t.Tanh(p)));
  });
}

TEST(Autograd, AddSameShape) {
  const Tensor other = RandomTensor(2, 3, 4);
  GradCheck(2, 3, [&](Tape& t, Var p) {
    return t.Sum(t.Add(p, t.Input(other)));
  });
}

TEST(Autograd, AddRowBroadcast) {
  const Tensor big = RandomTensor(5, 3, 5);
  GradCheck(1, 3, [&](Tape& t, Var p) {
    return t.Sum(t.Tanh(t.Add(t.Input(big), p)));
  });
}

TEST(Autograd, SubAndMul) {
  const Tensor other = RandomTensor(3, 3, 6);
  GradCheck(3, 3, [&](Tape& t, Var p) {
    return t.Sum(t.Mul(t.Sub(p, t.Input(other)), p));
  });
}

TEST(Autograd, ScaleAddScalar) {
  GradCheck(2, 2, [&](Tape& t, Var p) {
    return t.Sum(t.AddScalar(t.Scale(p, -2.5f), 0.7f));
  });
}

TEST(Autograd, Tanh) {
  GradCheck(3, 2, [&](Tape& t, Var p) { return t.Sum(t.Tanh(p)); });
}

TEST(Autograd, Sigmoid) {
  GradCheck(3, 2, [&](Tape& t, Var p) { return t.Sum(t.Sigmoid(p)); });
}

TEST(Autograd, Relu) {
  GradCheck(3, 3, [&](Tape& t, Var p) {
    // Multiply by a random matrix so the loss isn't piecewise constant.
    return t.Sum(t.Mul(t.Relu(p), t.Input(RandomTensor(3, 3, 7))));
  });
}

TEST(Autograd, Exp) {
  GradCheck(2, 3, [&](Tape& t, Var p) { return t.Sum(t.Exp(p)); });
}

TEST(Autograd, MinElem) {
  const Tensor other = RandomTensor(3, 3, 8);
  GradCheck(3, 3, [&](Tape& t, Var p) {
    return t.Sum(t.MinElem(p, t.Input(other)));
  });
}

TEST(Autograd, Clamp) {
  GradCheck(3, 3, [&](Tape& t, Var p) {
    return t.Sum(t.Mul(t.Clamp(p, -0.5f, 0.5f),
                       t.Input(RandomTensor(3, 3, 9))));
  });
}

TEST(Autograd, Softmax) {
  const Tensor weights = RandomTensor(2, 4, 10);
  GradCheck(2, 4, [&](Tape& t, Var p) {
    return t.Sum(t.Mul(t.Softmax(p), t.Input(weights)));
  });
}

TEST(Autograd, LogSoftmax) {
  const Tensor weights = RandomTensor(2, 4, 11);
  GradCheck(2, 4, [&](Tape& t, Var p) {
    return t.Sum(t.Mul(t.LogSoftmax(p), t.Input(weights)));
  });
}

TEST(Autograd, Transpose) {
  const Tensor other = RandomTensor(2, 3, 12);
  GradCheck(3, 2, [&](Tape& t, Var p) {
    return t.Sum(t.Mul(t.Transpose(p), t.Input(other)));
  });
}

TEST(Autograd, ConcatColsAndSlice) {
  const Tensor other = RandomTensor(2, 2, 13);
  GradCheck(2, 3, [&](Tape& t, Var p) {
    Var cat = t.ConcatCols(p, t.Input(other));  // 2×5
    return t.Sum(t.Tanh(t.SliceCols(cat, 1, 4)));
  });
}

TEST(Autograd, ConcatRowsAndRow) {
  GradCheck(2, 3, [&](Tape& t, Var p) {
    Var stacked = t.ConcatRows(
        {t.SliceRows(p, 1, 2), t.SliceRows(p, 0, 1), t.SliceRows(p, 1, 2)});
    return t.Sum(t.Sigmoid(stacked));
  });
}

TEST(Autograd, SumMeanSumRows) {
  GradCheck(3, 4, [&](Tape& t, Var p) {
    Var a = t.Mean(p);
    Var b = t.Sum(t.Tanh(t.SumRows(p)));
    return t.Add(a, b);
  });
}

TEST(Autograd, PickPerRow) {
  const Tensor weights = RandomTensor(3, 1, 14);
  GradCheck(3, 4, [&](Tape& t, Var p) {
    Var picked = t.PickPerRow(t.LogSoftmax(p), {2, 0, 3});
    return t.Sum(t.Mul(picked, t.Input(weights)));
  });
}

TEST(Autograd, SliceRowsAndGatherRows) {
  GradCheck(4, 3, [&](Tape& t, Var p) {
    Var rows = t.ConcatRows({t.SliceRows(p, 1, 3), t.GatherRows(p, {3, 0, 3})});
    return t.Sum(t.Tanh(rows));
  });
}

TEST(Autograd, ReshapeAndRowSums) {
  GradCheck(3, 4, [&](Tape& t, Var p) {
    return t.Sum(t.Tanh(t.RowSums(t.Reshape(p, 2, 6))));
  });
}

TEST(Autograd, AddPeriodicRowBroadcast) {
  const Tensor rows = RandomTensor(6, 3, 15);
  const Tensor period = RandomTensor(2, 3, 16);
  GradCheck(2, 3, [&](Tape& t, Var p) {
    return t.Sum(t.Tanh(t.Add(t.Input(rows), p)));
  });
  GradCheck(6, 3, [&](Tape& t, Var p) {
    return t.Sum(t.Tanh(t.Add(p, t.Input(period))));
  });
}

TEST(Autograd, LaneProduct) {
  // Three lanes of four steps over five columns.
  const Tensor weights = RandomTensor(3, 4, 17);
  const Tensor states = RandomTensor(12, 5, 18);
  const Tensor mix = RandomTensor(3, 5, 19);
  GradCheck(3, 4, [&](Tape& t, Var p) {
    return t.Sum(t.Mul(t.Tanh(t.LaneProduct(p, t.Input(states))),
                       t.Input(mix)));
  });
  GradCheck(12, 5, [&](Tape& t, Var p) {
    return t.Sum(t.Mul(t.Tanh(t.LaneProduct(t.Input(weights), p)),
                       t.Input(mix)));
  });
}

TEST(Autograd, LstmGates) {
  constexpr int kHidden = 3;
  const Tensor c0 = RandomTensor(2, kHidden, 61);
  const Tensor mix = RandomTensor(2, kHidden, 62);
  GradCheck(2, 4 * kHidden, [&](Tape& t, Var p) {
    const LstmState s = t.LstmGates(p, t.Input(c0));
    return t.Add(t.Sum(t.Mul(s.h, t.Input(mix))), t.Sum(s.c));
  });
  // Through the previous cell state, and both outputs' grads reaching it.
  const Tensor gates = RandomTensor(2, 4 * kHidden, 63);
  GradCheck(2, kHidden, [&](Tape& t, Var p) {
    const LstmState s = t.LstmGates(t.Input(gates), p);
    return t.Add(t.Sum(t.Mul(s.h, t.Input(mix))), t.Sum(s.c));
  });
}

TEST(Autograd, DeepComposition) {
  // A little network: two layers + softmax pick, closer to real use.
  const Tensor x = RandomTensor(4, 5, 15);
  GradCheck(5, 5, [&](Tape& t, Var p) {
    Var h = t.Tanh(t.MatMul(t.Input(x), p));
    Var logits = t.MatMul(h, t.Transpose(p));
    return t.Sum(t.PickPerRow(t.LogSoftmax(logits), {0, 1, 2, 3}));
  });
}

TEST(Autograd, ParamGradAccumulatesAcrossUses) {
  support::Rng rng(16);
  Parameter p;
  p.name = "p";
  p.value = Tensor(2, 2);
  p.grad = Tensor(2, 2);
  UniformInit(p.value, -1.0f, 1.0f, rng);
  Tape tape;
  Var a = tape.Param(&p);
  Var b = tape.Param(&p);  // used twice
  tape.Backward(tape.Sum(tape.Add(a, b)));
  // d/dp (sum(p) + sum(p)) = 2 everywhere.
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(p.grad.at(r, c), 2.0f);
}

TEST(Autograd, BackwardRequiresScalarLoss) {
  Parameter p;
  p.name = "p";
  p.value = Tensor(2, 2, 1.0f);
  p.grad = Tensor(2, 2);
  Tape tape;
  Var v = tape.Param(&p);
  EXPECT_THROW(tape.Backward(v), std::logic_error);
}

TEST(Autograd, ConstantsGetNoGradient) {
  Tape tape;
  Var c = tape.Input(Tensor(1, 1, 2.0f));
  // A loss built only from constants cannot be differentiated.
  EXPECT_THROW(tape.Backward(tape.Sum(c)), std::logic_error);
}

TEST(Autograd, ResetInvalidatesNodes) {
  Tape tape;
  Var v = tape.Input(Tensor(1, 1, 1.0f));
  tape.Reset();
  EXPECT_EQ(tape.num_nodes(), 0);
  EXPECT_THROW(tape.value(v), std::logic_error);
}

// The memo lives and dies with its tape's nodes: empty on a new tape and
// after Reset(), and private to the tape it was set on.
TEST(Autograd, MemoIsPerTape) {
  const int owner = 0;
  const int other = 0;
  Tape first;
  EXPECT_EQ(first.FindMemo(&owner), nullptr);
  Var a = first.Input(Tensor(1, 1, 1.0f));
  first.Memoize(&owner, {a});
  EXPECT_THROW(first.Memoize(&owner, {a}), std::logic_error);

  Tape second;
  EXPECT_EQ(second.FindMemo(&owner), nullptr);
  second.Input(Tensor(1, 1, 2.0f));
  Var b = second.Input(Tensor(1, 1, 3.0f));
  second.Memoize(&owner, {b, b});

  const std::vector<Var>* in_first = first.FindMemo(&owner);
  const std::vector<Var>* in_second = second.FindMemo(&owner);
  ASSERT_NE(in_first, nullptr);
  ASSERT_NE(in_second, nullptr);
  ASSERT_EQ(in_first->size(), 1u);
  EXPECT_EQ(first.value((*in_first)[0]).at(0, 0), 1.0f);
  ASSERT_EQ(in_second->size(), 2u);
  EXPECT_EQ(second.value((*in_second)[1]).at(0, 0), 3.0f);
  EXPECT_EQ(first.FindMemo(&other), nullptr);

  first.Reset();
  EXPECT_EQ(first.FindMemo(&owner), nullptr);
  EXPECT_NE(second.FindMemo(&owner), nullptr);
}

// The pre-queue backward, replayed op by op in reverse tape order: every
// contribution is written the moment its op runs, MatMul's through the
// naive:: kernels (dA = G·Bᵀ from B itself, dB += Aᵀ·G per product), and
// every other op with the tape's own arithmetic. Returns each node's grad.
std::vector<Tensor> OracleGrads(chain::RecordingTape& t, Var loss) {
  const Tape& tape = t.tape();
  std::vector<Tensor> grads(static_cast<std::size_t>(tape.num_nodes()));
  const auto grad = [&](Var v) -> Tensor& {
    Tensor& g = grads[static_cast<std::size_t>(v.id)];
    const Tensor& value = tape.value(v);
    if (g.empty() && !value.empty()) g = Tensor(value.rows(), value.cols());
    return g;
  };
  grad(loss).at(0, 0) = 1.0f;
  const auto& ops = t.ops();
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    const chain::RecordedOp& op = *it;
    const Tensor& g = grads[static_cast<std::size_t>(op.out.id)];
    if (g.empty()) continue;
    const bool ng_a = t.needs_grad(op.a);
    const bool ng_b = op.b.valid() && t.needs_grad(op.b);
    const Tensor& av = tape.value(op.a);
    switch (op.kind) {
      case chain::OpKind::kMatMul:
        if (ng_a) naive::GemmTransBAccum(g, tape.value(op.b), grad(op.a));
        if (ng_b) naive::GemmTransAAccum(av, g, grad(op.b));
        break;
      case chain::OpKind::kAdd: {
        const bool broadcast =
            tape.value(op.b).rows() == 1 && av.rows() != 1;
        if (ng_a) Axpy(1.0f, g, grad(op.a));
        if (ng_b && broadcast) {
          Tensor& gb = grad(op.b);
          for (int r = 0; r < g.rows(); ++r)
            for (int c = 0; c < g.cols(); ++c) gb.at(0, c) += g.at(r, c);
        } else if (ng_b) {
          Axpy(1.0f, g, grad(op.b));
        }
        break;
      }
      case chain::OpKind::kMul: {
        const Tensor& bv = tape.value(op.b);
        if (ng_a) {
          float* ga = grad(op.a).data();
          for (std::int64_t i = 0; i < g.size(); ++i)
            ga[i] += g.data()[i] * bv.data()[i];
        }
        if (ng_b) {
          float* gb = grad(op.b).data();
          for (std::int64_t i = 0; i < g.size(); ++i)
            gb[i] += g.data()[i] * av.data()[i];
        }
        break;
      }
      case chain::OpKind::kSigmoid:
      case chain::OpKind::kTanh: {
        const float* y = tape.value(op.out).data();
        float* ga = grad(op.a).data();
        for (std::int64_t i = 0; i < g.size(); ++i) {
          ga[i] += op.kind == chain::OpKind::kSigmoid
                       ? g.data()[i] * y[i] * (1.0f - y[i])
                       : g.data()[i] * (1.0f - y[i] * y[i]);
        }
        break;
      }
      case chain::OpKind::kSliceCols: {
        Tensor& ga = grad(op.a);
        for (int r = 0; r < g.rows(); ++r)
          for (int c = 0; c < g.cols(); ++c) ga.at(r, c + op.arg) += g.at(r, c);
        break;
      }
      case chain::OpKind::kConcatCols: {
        if (ng_a) {
          Tensor& ga = grad(op.a);
          for (int r = 0; r < ga.rows(); ++r)
            for (int c = 0; c < ga.cols(); ++c) ga.at(r, c) += g.at(r, c);
        }
        if (ng_b) {
          Tensor& gb = grad(op.b);
          for (int r = 0; r < gb.rows(); ++r)
            for (int c = 0; c < gb.cols(); ++c)
              gb.at(r, c) += g.at(r, c + av.cols());
        }
        break;
      }
      case chain::OpKind::kSliceRows: {
        Tensor& ga = grad(op.a);
        for (int r = 0; r < g.rows(); ++r)
          for (int c = 0; c < g.cols(); ++c) ga.at(op.arg + r, c) += g.at(r, c);
        break;
      }
      case chain::OpKind::kSum: {
        float* ga = grad(op.a).data();
        for (std::int64_t i = 0; i < av.size(); ++i) ga[i] += g.at(0, 0);
        break;
      }
    }
  }
  return grads;
}

std::uint32_t FloatBits(float x) { return std::bit_cast<std::uint32_t>(x); }

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   static_cast<std::size_t>(a.size()) *
                                       sizeof(float)) == 0);
}

// Queued dB folds, transposed-B dA products and the three flush points
// (another op's write, the operand's own backward, the Param flush) must
// leave every gradient byte where the one-product-at-a-time backward puts
// it.
TEST(Autograd, QueuedMatMulBackwardMatchesPerProductOracle) {
  chain::ChainNet net = chain::MakeChainNet(21);
  Tape tape;
  chain::RecordingTape t(tape);
  Var loss = chain::BuildChain(t, net);
  tape.Backward(loss);
  const std::vector<Tensor> want = OracleGrads(t, loss);

  int compared = 0;
  for (int id = 0; id < tape.num_nodes(); ++id) {
    const Tensor& got = tape.grad(Var{id});
    EXPECT_TRUE(SameBytes(got, want[static_cast<std::size_t>(id)]))
        << "node " << id << " grad differs from the oracle";
    compared += got.empty() ? 0 : 1;
  }
  EXPECT_GT(compared, 9 * chain::kSteps);
  for (Parameter* p : {&net.w, &net.bias, &net.w_enc}) {
    // Param() hands back the parameter's existing node.
    const Var leaf = tape.Param(p);
    Tensor flushed(p->value.rows(), p->value.cols());
    Axpy(1.0f, want[static_cast<std::size_t>(leaf.id)], flushed);
    EXPECT_TRUE(SameBytes(p->grad, flushed)) << p->name;
  }
}

// No MatMul output or queued dB fold (w_enc's here) reads stale storage:
// on recycled blocks full of NaN, the chain's values are the ones a
// first run left and every grad is still the oracle's.
TEST(Autograd, MatMulOutputsAndFirstDbFoldIgnoreStaleStorage) {
  std::vector<Tensor> first_values;
  for (const bool poison : {false, true}) {
    if (poison) arena_test::PoisonPooledBlocks();
    chain::ChainNet net = chain::MakeChainNet(21);
    Tape tape;
    chain::RecordingTape t(tape);
    Var loss = chain::BuildChain(t, net);
    tape.Backward(loss);
    const std::vector<Tensor> want = OracleGrads(t, loss);
    for (int id = 0; id < tape.num_nodes(); ++id) {
      const Tensor& value = tape.value(Var{id});
      if (!poison) {
        first_values.push_back(value);
      } else {
        EXPECT_TRUE(
            SameBytes(value, first_values[static_cast<std::size_t>(id)]))
            << "node " << id << " value";
      }
      EXPECT_TRUE(SameBytes(tape.grad(Var{id}),
                            want[static_cast<std::size_t>(id)]))
          << "node " << id << " grad, poisoned arena: " << poison;
    }
  }
}

// ---- the fused LSTM gate op against the 13-op chain it replaced ----

// Uniform values in [-1, 1] with every third one a zero of either sign,
// so products, slices and accumulations meet signed zeros.
Tensor ZeroRichTensor(int rows, int cols, std::uint64_t seed) {
  Tensor t = RandomTensor(rows, cols, seed);
  for (std::int64_t i = 0; i < t.size(); i += 3) {
    t.data()[i] = (i / 3) % 2 == 0 ? 0.0f : -0.0f;
  }
  return t;
}

struct GateNet {
  Parameter w;     // (kIn + H) × 4H
  Parameter bias;  // 1 × 4H
  Parameter x;     // (steps · R) × kIn, step t's rows [t·R, (t+1)·R)
  Parameter h0;    // R × H
  Parameter c0;    // R × H
  std::vector<Tensor> mixes;  // loss weights, R × H each
};

constexpr int kGateIn = 5;
constexpr int kGateSteps = 4;

GateNet MakeGateNet(int rows, int hidden, std::uint64_t seed) {
  const auto param = [](const char* name, Tensor value) {
    Tensor grad(value.rows(), value.cols());
    return Parameter{name, std::move(value), std::move(grad)};
  };
  GateNet net{
      param("w", ZeroRichTensor(kGateIn + hidden, 4 * hidden, seed)),
      param("bias", ZeroRichTensor(1, 4 * hidden, seed + 1)),
      param("x", ZeroRichTensor(kGateSteps * rows, kGateIn, seed + 2)),
      param("h0", ZeroRichTensor(rows, hidden, seed + 3)),
      param("c0", ZeroRichTensor(rows, hidden, seed + 4)),
      {}};
  for (int i = 0; i < 5; ++i) {
    net.mixes.push_back(ZeroRichTensor(rows, hidden, seed + 10 + i));
  }
  return net;
}

struct GateRun {
  std::vector<Tensor> values;  // every h and c, in step order
  std::vector<Tensor> grads;   // their grads, then every parameter's
};

// kGateSteps LSTM steps, fused or as the chain. Step 1's c also feeds a
// consumer recorded right after it and step 2's c one recorded after the
// last step. Two more steps branch off: one from the last state whose h
// reaches the loss not at all and whose c only through a consumer, and
// one from the first state whose c has no consumer at all.
GateRun RunGates(GateNet& net, bool fused) {
  for (Parameter* p : {&net.w, &net.bias, &net.x, &net.h0, &net.c0}) {
    p->grad.Fill(0.0f);
  }
  const int rows = net.h0.value.rows();
  const int hidden = net.h0.value.cols();
  Tape t;
  const auto step = [&](Var x, const LstmState& prev) {
    Var gates = t.Add(t.MatMul(t.ConcatCols(x, prev.h), t.Param(&net.w)),
                      t.Param(&net.bias));
    return fused ? t.LstmGates(gates, prev.c)
                 : chain::GateChain(t, gates, prev.c, hidden);
  };
  const auto weighted = [&](Var v, int mix) {
    return t.Sum(t.Mul(v, t.Input(net.mixes[static_cast<std::size_t>(mix)])));
  };
  Var xs = t.Param(&net.x);
  LstmState state{t.Param(&net.h0), t.Param(&net.c0)};
  std::vector<Var> outputs;
  Var loss;
  Var kept_c;
  LstmState first;
  for (int s = 0; s < kGateSteps; ++s) {
    state = step(t.SliceRows(xs, s * rows, (s + 1) * rows), state);
    outputs.push_back(state.h);
    outputs.push_back(state.c);
    if (s == 0) first = state;
    if (s == 1) loss = weighted(state.c, 0);
    if (s == 2) kept_c = state.c;
  }
  loss = t.Add(loss, weighted(state.h, 1));
  loss = t.Add(loss, weighted(kept_c, 2));
  const LstmState extra = step(t.SliceRows(xs, 0, rows), state);
  loss = t.Add(loss, weighted(extra.c, 3));
  const LstmState side = step(t.SliceRows(xs, rows, 2 * rows), first);
  loss = t.Add(loss, weighted(side.h, 4));
  for (Var v : {extra.h, extra.c, side.h, side.c}) outputs.push_back(v);
  t.Backward(loss);

  GateRun run;
  for (Var v : outputs) {
    run.values.push_back(t.value(v));
    run.grads.push_back(t.grad(v));
  }
  for (Parameter* p : {&net.w, &net.bias, &net.x, &net.h0, &net.c0}) {
    run.grads.push_back(p->grad);
  }
  return run;
}

TEST(LstmGates, FusedOpIsTheGateChainByteForByte) {
  for (const int rows : {1, 3, 10}) {
    for (const int hidden : {13, 16}) {
      SCOPED_TRACE(testing::Message() << "B = " << rows << ", H = " << hidden);
      GateNet net = MakeGateNet(rows, hidden, 70 + rows);
      const GateRun chain_run = RunGates(net, false);
      const GateRun fused_run = RunGates(net, true);
      ASSERT_EQ(chain_run.values.size(), fused_run.values.size());
      for (std::size_t i = 0; i < chain_run.values.size(); ++i) {
        EXPECT_TRUE(SameBytes(chain_run.values[i], fused_run.values[i]))
            << "value " << i;
      }
      ASSERT_EQ(chain_run.grads.size(), fused_run.grads.size());
      for (std::size_t i = 0; i < chain_run.grads.size(); ++i) {
        EXPECT_TRUE(SameBytes(chain_run.grads[i], fused_run.grads[i]))
            << "grad " << i;
      }
      // The extra step's h got no grad, as its chain node did not.
      EXPECT_TRUE(fused_run.grads[2 * kGateSteps].empty());
    }
  }
}

// With the gates constant, only the cell-state path needs a grad; with
// the cell state constant, only the gates' path.
TEST(LstmGates, EitherInputAloneTakesTheChainsGradient) {
  constexpr int kRows = 3;
  constexpr int kHidden = 9;
  Parameter gates{"gates", ZeroRichTensor(kRows, 4 * kHidden, 81),
                  Tensor(kRows, 4 * kHidden)};
  Parameter cell{"c", ZeroRichTensor(kRows, kHidden, 82),
                 Tensor(kRows, kHidden)};
  const Tensor mix = ZeroRichTensor(kRows, kHidden, 83);
  for (const bool gates_param : {false, true}) {
    std::vector<Tensor> grads;
    for (const bool fused : {false, true}) {
      gates.grad.Fill(0.0f);
      cell.grad.Fill(0.0f);
      Tape t;
      Var g = gates_param ? t.Param(&gates) : t.Input(gates.value);
      Var c = gates_param ? t.Input(cell.value) : t.Param(&cell);
      const LstmState s = fused ? t.LstmGates(g, c)
                                : chain::GateChain(t, g, c, kHidden);
      t.Backward(t.Add(t.Sum(t.Mul(s.h, t.Input(mix))), t.Sum(s.c)));
      grads.push_back(gates_param ? gates.grad : cell.grad);
    }
    EXPECT_TRUE(SameBytes(grads[0], grads[1])) << gates_param;
  }
}

// ---- the row-block ops behind the stacked placer: one lane is the op it
// replaced, byte for byte, and lanes are independent ----

std::vector<Tensor> GradsOf(std::initializer_list<Parameter*> params) {
  std::vector<Tensor> grads;
  for (Parameter* p : params) grads.push_back(p->grad);
  return grads;
}

Parameter RandomParameter(const char* name, int rows, int cols,
                          std::uint64_t seed) {
  return Parameter{name, RandomTensor(rows, cols, seed), Tensor(rows, cols)};
}

// Row(a, r), the op SliceRows and GatherRows replace, copied row r and
// added its gradient into row r.
TEST(Lanes, OneRowSliceAndGatherAreRow) {
  Parameter a = RandomParameter("a", 5, 4, 31);
  const Tensor g1 = RandomTensor(1, 4, 32);
  const Tensor g2 = RandomTensor(1, 4, 33);
  Tape t;
  Var pa = t.Param(&a);
  Var sliced = t.SliceRows(pa, 2, 3);
  Var gathered = t.GatherRows(pa, {2});
  for (Var v : {sliced, gathered}) {
    ASSERT_EQ(t.value(v).rows(), 1);
    EXPECT_EQ(std::memcmp(t.value(v).data(), a.value.row(2), 4 * sizeof(float)),
              0);
  }
  Var sliced_term = t.Sum(t.Mul(sliced, t.Input(g1)));
  Var gathered_term = t.Sum(t.Mul(gathered, t.Input(g2)));
  t.Backward(t.Add(sliced_term, gathered_term));
  // The gather is newer on the tape, so its write lands first: row 2 is
  // (0 + g2) + g1, every other row zero.
  Tensor want(5, 4);
  for (int c = 0; c < 4; ++c) {
    want.at(2, c) += g2.at(0, c);
    want.at(2, c) += g1.at(0, c);
  }
  EXPECT_TRUE(SameBytes(a.grad, want));
}

TEST(Lanes, GatherRowsAddsRepeatedRowsInIndexOrder) {
  Parameter a = RandomParameter("a", 3, 2, 34);
  const Tensor g = RandomTensor(4, 2, 35);
  Tape t;
  t.Backward(t.Sum(t.Mul(t.GatherRows(t.Param(&a), {1, 0, 1, 1}),
                         t.Input(g))));
  Tensor want(3, 2);
  for (int i : {0, 2, 3})
    for (int c = 0; c < 2; ++c) want.at(1, c) += g.at(i, c);
  for (int c = 0; c < 2; ++c) want.at(0, c) += g.at(1, c);
  EXPECT_TRUE(SameBytes(a.grad, want));
}

// One lane's RowSums is Sum, and Reshape then Transpose of an S×1 column
// is its Transpose.
TEST(Lanes, OneLaneRowSumsAndReshapeAreSumAndTranspose) {
  const Tensor mix = RandomTensor(1, 7, 36);
  std::vector<Tensor> grads;
  std::vector<Tensor> values;
  for (const bool lanes : {false, true}) {
    Parameter a = RandomParameter("a", 7, 1, 37);
    Tape t;
    Var row = lanes ? t.Transpose(t.Reshape(t.Param(&a), 7, 1))
                    : t.Transpose(t.Param(&a));
    Var weighted = t.Mul(t.Tanh(row), t.Input(mix));
    Var total = lanes ? t.RowSums(weighted) : t.Sum(weighted);
    values.push_back(t.value(total));
    t.Backward(t.Scale(total, 0.37f));
    grads.push_back(a.grad);
  }
  EXPECT_TRUE(SameBytes(values[0], values[1]));
  EXPECT_TRUE(SameBytes(grads[0], grads[1]));
}

// The decoder's pattern at one lane: every step reads a row of the
// encoder states E (the flush point of MatMul's queued dB) and takes an
// attention context over all of E, and the attention weights feed a
// second op after the context, so their gradient is not zero when the
// context's backward adds to it. LaneProduct must leave every gradient
// byte where MatMul leaves it.
TEST(Lanes, OneLaneProductIsMatMulThroughADecoderChain) {
  constexpr int kSteps = 6;
  constexpr int kCols = 20;
  std::vector<std::vector<Tensor>> grads;
  std::vector<Tensor> losses;
  for (const bool lanes : {false, true}) {
    Parameter enc = RandomParameter("enc", kSteps, kCols, 41);
    Parameter bias = RandomParameter("bias", 1, kSteps, 42);
    Tape t;
    Var e = t.Tanh(t.Param(&enc));
    Var b = t.Param(&bias);
    Var loss;
    for (int g = 0; g < kSteps; ++g) {
      const auto seed = static_cast<std::uint64_t>(100 + 10 * g);
      Var row = t.SliceRows(e, g, g + 1);
      Var w = t.Softmax(t.Add(b, t.Input(RandomTensor(1, kSteps, seed))));
      Var ctx = lanes ? t.LaneProduct(w, e) : t.MatMul(w, e);
      Var also_w = t.Sum(t.Mul(w, t.Input(RandomTensor(1, kSteps, seed + 1))));
      Var term = t.Add(
          t.Sum(t.Mul(t.Tanh(t.Add(ctx, row)),
                      t.Input(RandomTensor(1, kCols, seed + 2)))),
          also_w);
      loss = g == 0 ? term : t.Add(loss, term);
    }
    losses.push_back(t.value(loss));
    t.Backward(loss);
    grads.push_back(GradsOf({&enc, &bias}));
  }
  EXPECT_TRUE(SameBytes(losses[0], losses[1]));
  for (std::size_t i = 0; i < grads[0].size(); ++i) {
    EXPECT_TRUE(SameBytes(grads[0][i], grads[1][i])) << "parameter " << i;
  }
}

// B lanes at once equal each lane alone: LaneProduct over the
// lane-interleaved states and Add's periodic broadcast, forward and
// backward.
TEST(Lanes, StackedLanesEqualEachLaneAlone) {
  constexpr int kLanes = 3;
  constexpr int kSteps = 4;
  constexpr int kCols = 5;
  Parameter w = RandomParameter("w", kLanes, kSteps, 51);
  Parameter e = RandomParameter("e", kSteps * kLanes, kCols, 52);
  Parameter d = RandomParameter("d", kLanes, kCols, 53);
  const Tensor mix = RandomTensor(kLanes, kCols, 54);
  Tape t;
  Var pe = t.Param(&e);
  Var pw = t.Param(&w);
  Var pd = t.Param(&d);
  Var context = t.LaneProduct(pw, pe);
  Var first = t.SliceRows(t.Tanh(t.Add(pe, pd)), 0, kLanes);
  Var out = t.Add(context, first);
  const Tensor stacked = t.value(out);
  Var weights = t.Input(mix);
  t.Backward(t.Sum(t.Mul(out, weights)));

  for (int b = 0; b < kLanes; ++b) {
    Parameter w1{"w1", Tensor(1, kSteps), Tensor(1, kSteps)};
    Parameter e1{"e1", Tensor(kSteps, kCols), Tensor(kSteps, kCols)};
    Parameter d1{"d1", Tensor(1, kCols), Tensor(1, kCols)};
    for (int s = 0; s < kSteps; ++s) {
      w1.value.at(0, s) = w.value.at(b, s);
      for (int c = 0; c < kCols; ++c) {
        e1.value.at(s, c) = e.value.at(s * kLanes + b, c);
      }
    }
    for (int c = 0; c < kCols; ++c) d1.value.at(0, c) = d.value.at(b, c);
    Tensor mix1(1, kCols);
    for (int c = 0; c < kCols; ++c) mix1.at(0, c) = mix.at(b, c);
    Tape one;
    Var pe1 = one.Param(&e1);
    Var pw1 = one.Param(&w1);
    Var pd1 = one.Param(&d1);
    Var context1 = one.MatMul(pw1, pe1);
    Var first1 = one.SliceRows(one.Tanh(one.Add(pe1, pd1)), 0, 1);
    Var out1 = one.Add(context1, first1);
    Var weights1 = one.Input(mix1);
    one.Backward(one.Sum(one.Mul(out1, weights1)));
    for (int c = 0; c < kCols; ++c) {
      EXPECT_EQ(FloatBits(one.value(out1).at(0, c)),
                FloatBits(stacked.at(b, c)));
      EXPECT_EQ(FloatBits(d1.grad.at(0, c)), FloatBits(d.grad.at(b, c)));
      for (int s = 0; s < kSteps; ++s) {
        EXPECT_EQ(FloatBits(e1.grad.at(s, c)),
                  FloatBits(e.grad.at(s * kLanes + b, c)));
      }
    }
    for (int s = 0; s < kSteps; ++s) {
      EXPECT_EQ(FloatBits(w1.grad.at(0, s)), FloatBits(w.grad.at(b, s)));
    }
  }
}

}  // namespace
}  // namespace eagle::nn
