#include "core/grouper_ffn.h"

namespace eagle::core {

GrouperFFN::GrouperFFN(nn::ParamStore& store, int feature_dim, int hidden,
                       int num_groups, support::Rng& rng)
    : l1_(store, "grouper/l1", feature_dim, hidden, rng),
      hidden_(hidden),
      num_groups_(num_groups) {
  w2_ = store.Create("grouper/l2/w", hidden, num_groups);
  b2_ = store.Create("grouper/l2/b", 1, num_groups);
  nn::XavierInit(w2_->value, rng);
}

nn::Var GrouperFFN::Logits(nn::Tape& tape, nn::Var op_features,
                           const nn::Tensor* locality_prior) const {
  nn::Var h = tape.Tanh(l1_.Apply(tape, op_features));
  nn::Var logits = tape.Add(tape.MatMul(h, tape.Param(w2_)), tape.Param(b2_));
  if (locality_prior != nullptr) {
    logits = tape.Add(logits, tape.Input(*locality_prior));
  }
  return logits;
}

nn::Tensor MakeLocalityPrior(const graph::OpGraph& graph, int num_groups) {
  // Graph-definition order (op id) is the locality coordinate: builders —
  // like TF GraphDefs — emit ops layer by layer, so adjacent ids are
  // structurally adjacent. A Kahn topological rank interleaves parallel
  // layers (e.g. the unrolled timesteps of every GNMT layer) and would
  // band *across* the natural module boundaries instead.
  std::vector<float> rank(static_cast<std::size_t>(graph.num_ops()), 0.0f);
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    rank[static_cast<std::size_t>(i)] =
        graph.num_ops() > 1
            ? static_cast<float>(i) / static_cast<float>(graph.num_ops() - 1)
            : 0.0f;
  }
  const float gamma = 8.0f / static_cast<float>(num_groups);
  nn::Tensor prior(graph.num_ops(), num_groups);
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    const float center = rank[static_cast<std::size_t>(i)] *
                         static_cast<float>(num_groups);
    float* row = prior.row(i);
    for (int g = 0; g < num_groups; ++g) {
      const float d = center - (static_cast<float>(g) + 0.5f);
      row[g] = -gamma * d * d;
    }
  }
  return prior;
}

}  // namespace eagle::core
