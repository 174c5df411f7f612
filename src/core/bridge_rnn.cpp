#include "core/bridge_rnn.h"

#include <algorithm>

#include "support/check.h"

namespace eagle::core {

BridgeRnn::BridgeRnn(nn::ParamStore& store, int grouper_hidden,
                     int bridge_hidden, support::Rng& rng)
    : cell_(store, "bridge", grouper_hidden + 2, bridge_hidden, rng) {}

nn::Var BridgeRnn::Apply(nn::Tape& tape, const GrouperFFN& grouper,
                         nn::Var grouper_softmax,
                         std::span<const graph::Grouping> groupings) const {
  const int k = grouper.num_groups();
  const int lanes = static_cast<int>(groupings.size());
  const int num_ops = tape.value(grouper_softmax).rows();
  EAGLE_CHECK(lanes >= 1);

  // Parameter signatures: W2ᵀ rows are per-group columns (k × hidden).
  nn::Var signatures = tape.Transpose(tape.Param(grouper.output_weights()));
  // Soft mass per group: column means of the softmax (differentiable).
  nn::Var mass = tape.Transpose(
      tape.Scale(tape.SumRows(grouper_softmax),
                 1.0f / static_cast<float>(num_ops)));  // k×1
  nn::Var shared = tape.ConcatCols(signatures, mass);   // k × (hidden+1)
  // Discrete op-count share per group and lane (constant input).
  nn::Tensor counts(k * lanes, 1);
  for (int b = 0; b < lanes; ++b) {
    const graph::Grouping& grouping = groupings[static_cast<std::size_t>(b)];
    EAGLE_CHECK(static_cast<int>(grouping.size()) == num_ops);
    for (int g : grouping) {
      counts.at(g * lanes + b, 0) += 1.0f / static_cast<float>(num_ops);
    }
  }
  nn::Var count_share = tape.Input(std::move(counts));

  // Run the LSTM across the group sequence, every lane's step g at once.
  std::vector<nn::Var> states(static_cast<std::size_t>(k));
  std::vector<int> group(static_cast<std::size_t>(lanes));
  nn::LstmCell::State state = cell_.ZeroState(tape, lanes);
  for (int g = 0; g < k; ++g) {
    std::fill(group.begin(), group.end(), g);
    nn::Var x = tape.ConcatCols(
        tape.GatherRows(shared, group),
        tape.SliceRows(count_share, g * lanes, (g + 1) * lanes));
    state = cell_.Step(tape, x, state);
    states[static_cast<std::size_t>(g)] = state.h;
  }
  return tape.ConcatRows(states);  // (k·B) × bridge_hidden
}

}  // namespace eagle::core
