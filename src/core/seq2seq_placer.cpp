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

PlacerRollout Seq2SeqPlacer::Run(nn::Tape& tape, nn::Var group_embeddings,
                                 support::Rng* rng,
                                 std::span<const std::int32_t> forced) const {
  const int k = tape.value(group_embeddings).rows();
  // Checked up front: the loop below slices one forced device per step.
  EAGLE_CHECK(forced.empty() || static_cast<int>(forced.size()) == k);

  const auto enc = encoder_.Apply(tape, group_embeddings);
  nn::Var enc_proj = attention_.ProjectEncoder(tape, enc.states);

  PlacerRollout rollout;
  rollout.devices.resize(static_cast<std::size_t>(k));
  std::vector<nn::Var> picked_logps(static_cast<std::size_t>(k));
  std::vector<nn::Var> entropies(static_cast<std::size_t>(k));

  nn::Var device_table = tape.Param(device_embedding_);
  nn::LstmCell::State state{enc.final_fwd.h, enc.final_fwd.c};
  int prev_device = num_devices_;  // <start> token
  for (int g = 0; g < k; ++g) {
    nn::Var x = tape.ConcatCols(tape.Row(enc.states, g),
                                tape.Row(device_table, prev_device));
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
    CategoricalHead head = Categorical(
        tape, logits, rng, forced.empty() ? forced : forced.subspan(g, 1));
    prev_device = head.choices[0];
    rollout.devices[static_cast<std::size_t>(g)] = prev_device;
    picked_logps[static_cast<std::size_t>(g)] = head.log_prob;
    entropies[static_cast<std::size_t>(g)] = head.entropy;
  }
  rollout.log_prob = tape.Sum(tape.ConcatRows(picked_logps));
  rollout.entropy = tape.Scale(tape.Sum(tape.ConcatRows(entropies)),
                               1.0f / static_cast<float>(k));
  return rollout;
}

}  // namespace eagle::core
