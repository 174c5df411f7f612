#include "core/gcn_placer.h"

namespace eagle::core {

GcnPlacer::GcnPlacer(nn::ParamStore& store, int input_dim, int hidden,
                     int num_devices, support::Rng& rng)
    : conv1_(store, "gcn/conv1", input_dim, hidden, rng),
      conv2_(store, "gcn/conv2", hidden, hidden, rng),
      output_(store, "gcn/output", hidden, num_devices, rng) {}

PlacerRollout GcnPlacer::Run(nn::Tape& tape, nn::Var group_embeddings,
                             nn::Var adjacency, support::Rng* rng,
                             std::span<const std::int32_t> forced) const {
  nn::Var h1 = conv1_.Apply(tape, adjacency, group_embeddings);
  nn::Var h2 = conv2_.Apply(tape, adjacency, h1);
  nn::Var logits = output_.Apply(tape, h2);  // k×D
  CategoricalHead head = Categorical(tape, logits, rng, forced);
  return PlacerRollout{std::move(head.choices), head.log_prob, head.entropy};
}

}  // namespace eagle::core
