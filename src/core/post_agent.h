// Post (Gao et al., NeurIPS 2018) baseline: a deliberately simple policy
// network over pre-defined operation groups, trained with PPO joint with
// cross-entropy minimization.
//
// Post grouped operations manually; since no manual grouping ships with
// the paper we use the METIS grouping as the stand-in (documented in
// DESIGN.md). The policy is a per-group independent two-layer FFN: the
// simplicity trains stably (Post's observed strength on BERT) but cannot
// model inter-group placement dependencies (its observed local optimum on
// GNMT).
#pragma once

#include <memory>
#include <string>

#include "core/categorical.h"
#include "core/group_embedding.h"
#include "core/policy.h"
#include "core/run_config.h"
#include "nn/layers.h"
#include "sim/device.h"

namespace eagle::core {

struct PostAgentConfig {
  std::string display_name = "Post";
  int num_groups = 48;
  int hidden = 64;
  graph::FeatureMode features = graph::FeatureMode::kRaw;
  std::uint64_t seed = 1;
};

class PostAgent : public PolicyAgent {
 public:
  PostAgent(const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
            graph::Grouping grouping, PostAgentConfig config);

  Sample SampleDecision(support::Rng& rng) override;
  Score ScoreDecision(nn::Tape& tape, const Sample& sample) override;
  sim::Placement ToPlacement(const Sample& sample) const override;
  nn::ParamStore& params() override { return store_; }
  const char* name() const override { return config_.display_name.c_str(); }

 private:
  CategoricalHead RunPolicy(nn::Tape& tape, support::Rng* rng,
                            std::span<const std::int32_t> forced);

  const graph::OpGraph* graph_;
  const sim::ClusterSpec* cluster_;
  PostAgentConfig config_;
  graph::Grouping grouping_;
  nn::ParamStore store_;
  nn::Linear l1_;
  nn::Linear l2_;
  nn::Tensor embeddings_;
};

// Post's published grouping is a coarse, manually-defined one; 16 METIS
// groups stand in for it (finer groupings would give Post more
// flexibility than the original had).
std::unique_ptr<PostAgent> MakePostAgent(const graph::OpGraph& graph,
                                         const sim::ClusterSpec& cluster,
                                         int num_groups = 16,
                                         std::uint64_t seed = 1);

}  // namespace eagle::core
