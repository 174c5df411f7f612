#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "tests/seq2seq_oracle.h"

namespace eagle::nn {
namespace {

TEST(ParamStore, CreateAndFind) {
  ParamStore store;
  Parameter* p = store.Create("w", 2, 3);
  EXPECT_EQ(store.Find("w"), p);
  EXPECT_EQ(store.Find("x"), nullptr);
  EXPECT_EQ(store.NumScalars(), 6);
  EXPECT_THROW(store.Create("w", 1, 1), std::logic_error);
}

TEST(ParamStore, GradNormAndClip) {
  ParamStore store;
  Parameter* p = store.Create("w", 1, 2);
  p->grad.at(0, 0) = 3.0f;
  p->grad.at(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(store.GradNorm(), 5.0);
  const double pre = store.ClipGradNorm(1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(store.GradNorm(), 1.0, 1e-5);
  store.ZeroGrads();
  EXPECT_DOUBLE_EQ(store.GradNorm(), 0.0);
}

TEST(Init, XavierWithinBound) {
  support::Rng rng(1);
  Tensor t(64, 64);
  XavierInit(t, rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  float max_abs = 0.0f, sum = 0.0f;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(t.data()[i]));
    sum += t.data()[i];
  }
  EXPECT_LE(max_abs, bound + 1e-6f);
  EXPECT_GT(max_abs, bound * 0.5f);
  EXPECT_NEAR(sum / t.size(), 0.0f, 0.01f);
}

TEST(Linear, ShapeAndBias) {
  ParamStore store;
  support::Rng rng(2);
  Linear lin(store, "lin", 4, 3, rng);
  store.Find("lin/b")->value.at(0, 1) = 5.0f;
  Tape tape;
  Var x = tape.Input(Tensor(2, 4));  // zeros
  Var y = lin.Apply(tape, x);
  EXPECT_EQ(tape.value(y).rows(), 2);
  EXPECT_EQ(tape.value(y).cols(), 3);
  // Zero input -> bias only.
  EXPECT_FLOAT_EQ(tape.value(y).at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(tape.value(y).at(1, 1), 5.0f);
}

TEST(LstmCell, StateShapesAndForgetBias) {
  ParamStore store;
  support::Rng rng(3);
  LstmCell cell(store, "lstm", 6, 8, rng);
  // Forget-gate bias initialized to 1.
  EXPECT_FLOAT_EQ(store.Find("lstm/b")->value.at(0, 8), 1.0f);
  EXPECT_FLOAT_EQ(store.Find("lstm/b")->value.at(0, 0), 0.0f);
  Tape tape;
  auto state = cell.ZeroState(tape, 2);
  support::Rng data_rng(4);
  Tensor x(2, 6);
  UniformInit(x, -1, 1, data_rng);
  auto next = cell.Step(tape, tape.Input(x), state);
  EXPECT_EQ(tape.value(next.h).rows(), 2);
  EXPECT_EQ(tape.value(next.h).cols(), 8);
  EXPECT_EQ(tape.value(next.c).cols(), 8);
  // h = o * tanh(c) is bounded.
  for (int c = 0; c < 8; ++c) {
    EXPECT_LE(std::abs(tape.value(next.h).at(0, c)), 1.0f);
  }
}

TEST(LstmCell, StatePropagatesAcrossSteps) {
  ParamStore store;
  support::Rng rng(5);
  LstmCell cell(store, "lstm", 4, 4, rng);
  Tape tape;
  auto state = cell.ZeroState(tape, 1);
  Tensor x(1, 4, 0.5f);
  auto s1 = cell.Step(tape, tape.Input(x), state);
  auto s2 = cell.Step(tape, tape.Input(x), s1);
  // Same input, different hidden state -> different outputs.
  bool differs = false;
  for (int c = 0; c < 4; ++c) {
    differs |= std::abs(tape.value(s1.h).at(0, c) -
                        tape.value(s2.h).at(0, c)) > 1e-6f;
  }
  EXPECT_TRUE(differs);
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   static_cast<std::size_t>(a.size()) *
                                       sizeof(float)) == 0);
}

// The cell on the fused gate op against the oracle cell on the 13-op
// chain: the same parameters from the same draws, then every state and
// every parameter-gradient byte equal over a 6-step sequence of B lanes.
TEST(LstmCell, StepIsTheUnfusedOracleCell) {
  constexpr int kIn = 6;
  constexpr int kHidden = 12;
  constexpr int kSteps = 6;
  for (const int lanes : {1, 3, 10}) {
    SCOPED_TRACE(testing::Message() << "B = " << lanes);
    support::Rng data_rng(static_cast<std::uint64_t>(20 + lanes));
    Tensor seq(kSteps * lanes, kIn);
    UniformInit(seq, -2.0f, 2.0f, data_rng);
    Tensor mix(lanes, kHidden);
    UniformInit(mix, -1.0f, 1.0f, data_rng);

    std::vector<std::vector<Tensor>> states;
    std::vector<std::vector<Tensor>> grads;
    const auto run = [&](const auto& cell, ParamStore& store) {
      Tape tape;
      Var inputs = tape.Input(seq);
      auto state = cell.ZeroState(tape, lanes);
      std::vector<Tensor> values;
      Var loss;
      for (int t = 0; t < kSteps; ++t) {
        state = cell.Step(
            tape, tape.SliceRows(inputs, t * lanes, (t + 1) * lanes), state);
        values.push_back(tape.value(state.h));
        values.push_back(tape.value(state.c));
        Var term = tape.Sum(tape.Mul(state.h, tape.Input(mix)));
        loss = t == 0 ? term : tape.Add(loss, term);
      }
      tape.Backward(loss);
      states.push_back(std::move(values));
      std::vector<Tensor> g;
      for (const auto& p : store.params()) g.push_back(p->grad);
      grads.push_back(std::move(g));
    };
    ParamStore store;
    support::Rng rng(9);
    run(LstmCell(store, "lstm", kIn, kHidden, rng), store);
    ParamStore oracle_store;
    support::Rng oracle_rng(9);
    run(oracle::LstmCell(oracle_store, "lstm", kIn, kHidden, oracle_rng),
        oracle_store);
    for (std::size_t i = 0; i < states[0].size(); ++i) {
      EXPECT_TRUE(SameBytes(states[0][i], states[1][i])) << "state " << i;
    }
    ASSERT_EQ(grads[0].size(), grads[1].size());
    for (std::size_t i = 0; i < grads[0].size(); ++i) {
      EXPECT_TRUE(SameBytes(grads[0][i], grads[1][i])) << "parameter " << i;
    }
  }
}

TEST(BiLstmEncoder, OutputShape) {
  ParamStore store;
  support::Rng rng(6);
  BiLstmEncoder encoder(store, "enc", 5, 7, rng);
  Tape tape;
  Tensor seq(9, 5);
  UniformInit(seq, -1, 1, rng);
  auto out = encoder.Apply(tape, tape.Input(seq), /*lanes=*/1);
  EXPECT_EQ(tape.value(out.states).rows(), 9);
  EXPECT_EQ(tape.value(out.states).cols(), 14);  // 2H
  EXPECT_EQ(tape.value(out.final_fwd.h).cols(), 7);
}

TEST(BiLstmEncoder, BackwardDirectionSeesFuture) {
  // The backward half of the first row depends on the last row's input.
  ParamStore store;
  support::Rng rng(7);
  BiLstmEncoder encoder(store, "enc", 3, 4, rng);
  Tensor seq(5, 3, 0.1f);
  Tape tape1;
  auto out1 = encoder.Apply(tape1, tape1.Input(seq), /*lanes=*/1);
  const float before = tape1.value(out1.states).at(0, 6);  // bwd part
  seq.at(4, 0) = 5.0f;  // perturb the LAST timestep
  Tape tape2;
  auto out2 = encoder.Apply(tape2, tape2.Input(seq), /*lanes=*/1);
  const float after = tape2.value(out2.states).at(0, 6);
  EXPECT_NE(before, after);
}

TEST(Attention, WeightsFormDistribution) {
  ParamStore store;
  support::Rng rng(8);
  BahdanauAttention attention(store, "attn", 6, 4, 5, rng);
  Tape tape;
  Tensor enc(7, 6);
  UniformInit(enc, -1, 1, rng);
  Tensor dec(1, 4);
  UniformInit(dec, -1, 1, rng);
  Var enc_var = tape.Input(enc);
  Var proj = attention.ProjectEncoder(tape, enc_var);
  auto result = attention.Apply(tape, enc_var, proj, tape.Input(dec));
  const Tensor& w = tape.value(result.weights);
  ASSERT_EQ(w.rows(), 1);
  ASSERT_EQ(w.cols(), 7);
  float sum = 0.0f;
  for (int c = 0; c < 7; ++c) {
    EXPECT_GE(w.at(0, c), 0.0f);
    sum += w.at(0, c);
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_EQ(tape.value(result.context).cols(), 6);
}

TEST(GraphConv, MixesNeighbors) {
  ParamStore store;
  support::Rng rng(9);
  GraphConv conv(store, "gcn", 3, 2, rng);
  Tape tape;
  // Two nodes, fully connected (normalized): each output row mixes both.
  Tensor adj = Tensor::FromData(2, 2, {0.5f, 0.5f, 0.5f, 0.5f});
  Tensor x = Tensor::FromData(2, 3, {1, 0, 0, 0, 1, 0});
  Var y = conv.Apply(tape, tape.Input(adj), tape.Input(x), /*relu=*/false);
  // Identical mixing weights -> identical rows.
  EXPECT_FLOAT_EQ(tape.value(y).at(0, 0), tape.value(y).at(1, 0));
  EXPECT_FLOAT_EQ(tape.value(y).at(0, 1), tape.value(y).at(1, 1));
}

TEST(Adam, MinimizesQuadratic) {
  // min ||p - target||² converges with Adam.
  ParamStore store;
  Parameter* p = store.Create("p", 1, 3);
  const Tensor target = Tensor::FromData(1, 3, {1.0f, -2.0f, 0.5f});
  AdamOptions options;
  options.lr = 0.05;
  options.clip_norm = 0.0;
  Adam adam(store, options);
  for (int step = 0; step < 500; ++step) {
    Tape tape;
    Var diff = tape.Sub(tape.Param(p), tape.Input(target));
    tape.Backward(tape.Sum(tape.Mul(diff, diff)));
    adam.Step();
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(p->value.at(0, c), target.at(0, c), 0.02f);
  }
  EXPECT_EQ(adam.step_count(), 500);
}

TEST(Adam, ClipBoundsUpdates) {
  ParamStore store;
  Parameter* p = store.Create("p", 1, 1);
  p->grad.at(0, 0) = 1e6f;
  AdamOptions options;
  options.clip_norm = 1.0;
  Adam adam(store, options);
  const double pre_norm = adam.Step();
  EXPECT_DOUBLE_EQ(pre_norm, 1e6);
  // Post-clip Adam step magnitude is bounded by ~lr.
  EXPECT_LE(std::abs(p->value.at(0, 0)), options.lr * 2);
}

TEST(Serialize, RoundTrip) {
  ParamStore store;
  support::Rng rng(10);
  Parameter* w = store.Create("w", 3, 4);
  Parameter* b = store.Create("b", 1, 4);
  XavierInit(w->value, rng);
  XavierInit(b->value, rng);
  support::ByteWriter out;
  SaveParams(store, out);

  ParamStore restored;
  restored.Create("w", 3, 4);
  restored.Create("b", 1, 4);
  support::ByteReader in(out.bytes(), "params");
  LoadParams(restored, in);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_TRUE(in.at_end());
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_FLOAT_EQ(restored.Find("w")->value.at(r, c),
                      w->value.at(r, c));
}

TEST(Serialize, ShapeMismatchRejected) {
  ParamStore store;
  store.Create("w", 2, 2);
  support::ByteWriter out;
  SaveParams(store, out);
  ParamStore other;
  other.Create("w", 3, 3);
  support::ByteReader in(out.bytes(), "params");
  LoadParams(other, in);
  // magic (8) + count (4) + name length (4) + "w": rows sits at byte 17.
  EXPECT_EQ(in.status().ToString(),
            "params: [syntax] byte 17: parameter 'w' is 2x2, expected 3x3");
}

TEST(Serialize, SectionMustListTheStoreInOrder) {
  ParamStore store;
  store.Create("w", 1, 1);
  store.Create("b", 1, 1);
  support::ByteWriter out;
  SaveParams(store, out);

  ParamStore swapped;
  swapped.Create("b", 1, 1);
  swapped.Create("w", 1, 1);
  support::ByteReader in(out.bytes(), "params");
  LoadParams(swapped, in);
  EXPECT_EQ(in.status().ToString(),
            "params: [syntax] byte 12: expected parameter 'b'");

  ParamStore fewer;
  fewer.Create("w", 1, 1);
  support::ByteReader short_in(out.bytes(), "params");
  LoadParams(fewer, short_in);
  EXPECT_EQ(short_in.status().ToString(),
            "params: [syntax] byte 8: expected 1 parameters");
}

}  // namespace
}  // namespace eagle::nn
