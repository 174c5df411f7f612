// HierarchicalAgent: the grouper→placer policy family of §III, covering
//
//   EAGLE                — learned FFN grouper + bridge RNN + seq2seq
//                          placer with attention-before + reconstructed
//                          state vectors (every EAGLE ingredient on);
//   Hierarchical Planner — learned FFN grouper, no bridge, seq2seq placer
//                          with attention-after, raw HP-style features
//                          (our reproduction of Mirhoseini et al. [5]);
//   fixed-grouper agents — METIS / fluid-communities / any precomputed
//                          grouping with a trainable placer (Tables I–II);
//   Post                 — (Gao et al., NeurIPS 2018) a fixed METIS
//                          grouping with the per-group FFN placer.
//
// The joint decision log-probability is
//   log π = log π_placer + w_g · log π_grouper,
// with w_g = num_groups/num_ops: the grouper term is a sum of thousands of
// per-op categoricals whose raw magnitude would swamp the placer term and
// blow up PPO importance ratios; scaling it to the same order as the
// placer term (≈ one categorical per group) keeps the joint ratio
// meaningful. The same weight is used at sampling and scoring time, so
// the PPO ratio is exact for the reweighted objective.
//
// The learned grouper's distribution (logits, log-softmax, softmax,
// entropy over every op) depends on the parameters alone, so it runs once
// per parameter state rather than once per decision. Scoring builds it on
// the first ScoreDecision of a tape and later scores on that tape reuse
// it (nn::Tape::FindMemo). Sampling keeps its values from the last
// sampling forward and reuses them while the grouper's parameter bytes
// are unchanged. The metrics counter "agent.grouper_forwards" counts the
// forwards that do run.
//
// ScoreDecisions scores a batch as one stacked seq2seq rollout: lane b of
// group g is row g·B + b of the placer's input, and the bridge, encoder,
// attention and decoder each run once over the B lanes. Each sample's
// log-prob and entropy are bit for bit those of scoring it alone; only
// the order in which the lanes' gradients sum moves. Sampling and
// ScoreDecision run the same forms with one lane.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bridge_rnn.h"
#include "core/categorical.h"
#include "core/gcn_placer.h"
#include "core/group_embedding.h"
#include "core/grouper_ffn.h"
#include "core/policy.h"
#include "core/run_config.h"
#include "core/seq2seq_placer.h"
#include "nn/layers.h"
#include "sim/device.h"
#include "sim/placement.h"

namespace eagle::core {

enum class GrouperKind { kLearned, kFixed };
// kFfn is Post's policy: a two-layer tanh FFN applied to every group's
// embedding independently, one device categorical per group. Simple, so
// it trains stably (Post's strength on BERT), but it cannot model
// inter-group placement dependencies (its local optimum on GNMT).
enum class PlacerKind { kSeq2Seq, kGcn, kFfn };

struct HierarchicalAgentConfig {
  std::string display_name = "EAGLE";
  AgentDims dims;
  GrouperKind grouper = GrouperKind::kLearned;
  graph::Grouping fixed_grouping;  // required when grouper == kFixed
  PlacerKind placer = PlacerKind::kSeq2Seq;
  AttentionVariant attention = AttentionVariant::kBefore;
  bool use_bridge = true;
  FeatureMode features = FeatureMode::kReconstructed;
  std::uint64_t seed = 1;
};

class HierarchicalAgent : public PolicyAgent {
 public:
  HierarchicalAgent(const graph::OpGraph& graph,
                    const sim::ClusterSpec& cluster,
                    HierarchicalAgentConfig config);

  Sample SampleDecision(support::Rng& rng) override;
  Score ScoreDecision(nn::Tape& tape, const Sample& sample) override;
  std::vector<Score> ScoreDecisions(
      nn::Tape& tape, std::span<const Sample* const> samples) override;
  sim::Placement ToPlacement(const Sample& sample) const override;
  nn::ParamStore& params() override { return store_; }
  const char* name() const override { return config_.display_name.c_str(); }

  const HierarchicalAgentConfig& config() const { return config_; }

 private:
  struct PolicyOutput {
    graph::Grouping grouping;  // the sampled learned grouping, else empty
    std::vector<std::int32_t> devices;  // lane-major, k per lane
    nn::Var logp;     // B×1
    nn::Var entropy;  // B×1
  };
  // One policy forward over B sample lanes: samples one decision (rng
  // set, `stored` empty, B = 1) or scores the B stored decisions. The
  // seq2seq placer runs the lanes as one stacked rollout; the GCN and FFN
  // placers take one lane. `grouper` is the learned grouper's
  // distribution on `tape`; unused when the grouper is fixed.
  PolicyOutput RunPolicy(nn::Tape& tape, const CategoricalDistribution& grouper,
                         support::Rng* rng,
                         std::span<const Sample* const> stored);
  // The learned grouper's full forward on `tape`.
  CategoricalDistribution GrouperForward(nn::Tape& tape) const;
  // The grouper distribution a sample draws from: the cached values as
  // tape inputs, after a forward that refills the cache when the grouper
  // parameters' bytes differ from those it was computed under.
  CategoricalDistribution SamplingDistribution(nn::Tape& tape);
  // The grouper distribution a score reads: built by the first score on
  // `tape`, shared by every later one.
  CategoricalDistribution ScoringDistribution(nn::Tape& tape) const;

  const graph::OpGraph* graph_;
  const sim::ClusterSpec* cluster_;
  // The graph's colocation and CPU pinning, worked out once: ToPlacement
  // is the group gather plus one pass over it.
  sim::NormalizationPlan plan_;
  HierarchicalAgentConfig config_;
  nn::ParamStore store_;
  GrouperFFN grouper_;
  BridgeRnn bridge_;
  Seq2SeqPlacer seq_placer_;
  GcnPlacer gcn_placer_;
  nn::Linear ffn_l1_;
  nn::Linear ffn_l2_;
  // Learned grouper only: its input, the additive topological-banding
  // prior on its logits (GrouperFFN::Logits), and the per-op columns each
  // sample's grouping is embedded from.
  nn::Tensor op_features_;
  nn::Tensor locality_prior_;
  GroupEmbedder embedder_;
  // Learned grouper only: its parameters, and the sampling cache — the
  // distribution's values from the last sampling forward plus a copy of
  // those parameters' values at that forward, compared byte for byte
  // (empty until the first sample).
  std::vector<const nn::Parameter*> grouper_params_;
  std::vector<float> cached_params_;
  nn::Tensor cached_log_probs_;
  nn::Tensor cached_probs_;
  nn::Tensor cached_entropy_;
  // Fixed grouper only: the embeddings and, for the GCN placer, Â.
  nn::Tensor fixed_embeddings_;
  nn::Tensor fixed_adjacency_;
  double grouper_weight_ = 0.0;
};

// ---- factories for the named approaches ----

std::unique_ptr<HierarchicalAgent> MakeEagleAgent(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    const AgentDims& dims, std::uint64_t seed);

std::unique_ptr<HierarchicalAgent> MakeHierarchicalPlanner(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    const AgentDims& dims, std::uint64_t seed);

std::unique_ptr<HierarchicalAgent> MakeFixedGrouperAgent(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    graph::Grouping grouping, PlacerKind placer, AttentionVariant attention,
    const AgentDims& dims, std::uint64_t seed, const std::string& name);

// Post: `num_groups` METIS groups with the FFN placer over raw features.
// Post's published grouping is a coarse, manually-defined one; 16 METIS
// groups stand in for it (finer groupings would give Post more
// flexibility than the original had).
std::unique_ptr<HierarchicalAgent> MakePostAgent(
    const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
    int num_groups = 16, std::uint64_t seed = 1);

}  // namespace eagle::core
