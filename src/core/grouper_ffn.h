// The learned grouper: a two-layer feed-forward network mapping per-op
// feature vectors to group logits (§III-B; paper: 64 hidden units, 256
// groups). A grouping is one categorical draw per operation from its
// logits (core::Categorical).
#pragma once

#include "graph/op_graph.h"
#include "nn/layers.h"
#include "support/rng.h"

namespace eagle::core {

class GrouperFFN {
 public:
  GrouperFFN() = default;
  GrouperFFN(nn::ParamStore& store, int feature_dim, int hidden,
             int num_groups, support::Rng& rng);

  // num_ops × num_groups logits. When a locality prior is supplied (see
  // MakeLocalityPrior) it is added to the learned logits: the grouper
  // then *starts* from a soft topological banding — groups are
  // contiguous regions of the graph, as manual groupings are — and the
  // FFN learns deviations from it. Without the prior the initial
  // groupings are type-clusters scattered across the graph, whose huge
  // cut makes the joint learning problem needlessly hard (the instability
  // the paper reports for Hierarchical Planner on BERT).
  nn::Var Logits(nn::Tape& tape, nn::Var op_features,
                 const nn::Tensor* locality_prior = nullptr) const;

  // Second-layer weights (hidden × num_groups); each column is a group's
  // parameter signature — the bridge RNN's per-group input (§III, "an
  // extra RNN ... transforms parameters of the grouper into inputs of the
  // placer").
  nn::Parameter* output_weights() const { return w2_; }
  int hidden() const { return hidden_; }
  int num_groups() const { return num_groups_; }

 private:
  nn::Linear l1_;
  nn::Parameter* w2_ = nullptr;
  nn::Parameter* b2_ = nullptr;
  int hidden_ = 0;
  int num_groups_ = 0;
};

// num_ops × num_groups additive logit prior: op at normalized topological
// rank r prefers groups near r·k with a soft quadratic falloff
// (P[op][g] = -gamma (r·k - g - 0.5)², gamma ≈ 8/k, so a band of a few
// neighboring groups stays in play for exploration).
nn::Tensor MakeLocalityPrior(const graph::OpGraph& graph, int num_groups);

}  // namespace eagle::core
