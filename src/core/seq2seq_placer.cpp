#include "core/seq2seq_placer.h"

#include "support/check.h"

namespace eagle::core {

Seq2SeqPlacer::Seq2SeqPlacer(nn::ParamStore& store, int input_dim, int hidden,
                             int attn_dim, int device_embed_dim,
                             int num_devices, AttentionVariant variant,
                             support::Rng& rng)
    : encoder_(store, "placer/encoder", input_dim, hidden, rng),
      decoder_(store, "placer/decoder",
               // Decoder input: encoder state (2H) + previous device
               // embedding; the before-variant additionally feeds the
               // attention context (2H) into the cell.
               2 * hidden + device_embed_dim +
                   (variant == AttentionVariant::kBefore ? 2 * hidden : 0),
               hidden, rng),
      attention_(store, "placer/attention", 2 * hidden, hidden, attn_dim,
                 rng),
      output_(store, "placer/output",
              variant == AttentionVariant::kAfter ? 3 * hidden : hidden,
              num_devices, rng),
      num_devices_(num_devices),
      hidden_(hidden),
      variant_(variant) {
  device_embedding_ =
      store.Create("placer/device_embedding", num_devices + 1,
                   device_embed_dim);
  nn::XavierInit(device_embedding_->value, rng);
}

PlacerRollout Seq2SeqPlacer::Run(
    nn::Tape& tape, nn::Var group_embeddings, int lanes, support::Rng* rng,
    std::span<const std::span<const std::int32_t>> forced) const {
  const int rows = tape.value(group_embeddings).rows();
  EAGLE_CHECK(lanes >= 1 && rows % lanes == 0);
  const int k = rows / lanes;
  // Checked up front: the loop below reads one forced device per lane and
  // step.
  EAGLE_CHECK(forced.empty() || static_cast<int>(forced.size()) == lanes);
  for (std::span<const std::int32_t> lane : forced) {
    EAGLE_CHECK(static_cast<int>(lane.size()) == k);
  }

  const auto enc = encoder_.Apply(tape, group_embeddings, lanes);
  nn::Var enc_proj = attention_.ProjectEncoder(tape, enc.states);

  PlacerRollout rollout;
  rollout.devices.resize(static_cast<std::size_t>(k * lanes));
  std::vector<nn::Var> picked_logps(static_cast<std::size_t>(k));
  std::vector<nn::Var> entropies(static_cast<std::size_t>(k));
  std::vector<std::int32_t> step_forced(forced.empty() ? 0 : lanes);

  nn::Var device_table = tape.Param(device_embedding_);
  nn::LstmCell::State state{enc.final_fwd.h, enc.final_fwd.c};
  std::vector<int> prev_devices(static_cast<std::size_t>(lanes),
                                num_devices_);  // <start> token
  for (int g = 0; g < k; ++g) {
    nn::Var x = tape.ConcatCols(
        tape.SliceRows(enc.states, g * lanes, (g + 1) * lanes),
        tape.GatherRows(device_table, prev_devices));
    nn::Var logits;
    if (variant_ == AttentionVariant::kBefore) {
      const auto attn = attention_.Apply(tape, enc.states, enc_proj, state.h);
      x = tape.ConcatCols(x, attn.context);
      state = decoder_.Step(tape, x, state);
      logits = output_.Apply(tape, state.h);
    } else {
      state = decoder_.Step(tape, x, state);
      const auto attn = attention_.Apply(tape, enc.states, enc_proj, state.h);
      logits = output_.Apply(tape, tape.ConcatCols(state.h, attn.context));
    }
    for (std::size_t b = 0; b < step_forced.size(); ++b) {
      step_forced[b] = forced[b][static_cast<std::size_t>(g)];
    }
    CategoricalRows head = CategoricalPerRow(tape, logits, rng, step_forced);
    for (int b = 0; b < lanes; ++b) {
      const std::int32_t device = head.choices[static_cast<std::size_t>(b)];
      prev_devices[static_cast<std::size_t>(b)] = device;
      rollout.devices[static_cast<std::size_t>(b * k + g)] = device;
    }
    picked_logps[static_cast<std::size_t>(g)] = head.log_probs;
    entropies[static_cast<std::size_t>(g)] = head.entropies;
  }
  // Each lane sums its k steps in step order from zero, as Sum does:
  // (k·B)×1 in step-major rows, regrouped into one B×k row per lane.
  const auto per_lane = [&](const std::vector<nn::Var>& steps) {
    return tape.RowSums(
        tape.Transpose(tape.Reshape(tape.ConcatRows(steps), k, lanes)));
  };
  rollout.log_prob = per_lane(picked_logps);
  rollout.entropy =
      tape.Scale(per_lane(entropies), 1.0f / static_cast<float>(k));
  return rollout;
}

}  // namespace eagle::core
