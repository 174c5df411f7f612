// The per-sample placer stack as the agents ran it before a batch was
// scored as one stacked rollout: verbatim copies of the one-sequence
// BiLstmEncoder::Apply, BahdanauAttention::Apply, BridgeRnn::Apply and
// Seq2SeqPlacer::Run, and of HierarchicalAgent's per-sample policy
// forward over them, on an LstmCell whose Step is the 13-op gate chain
// Tape::LstmGates replaced (chain::GateChain). The lane tests hold the stacked forms to this
// oracle: a batch of one must reproduce it byte for byte, gradients
// included, and each lane of a larger batch its log-prob and entropy.
//
// Each class builds its parameters exactly as its production counterpart
// does (same names, same order, same draws from the same Rng), so an
// OracleAgent built from an agent's config holds parameters equal to the
// agent's, in its own ParamStore. The one op the copies used that the
// tape no longer has, Row(a, r), is the one-row SliceRows.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/categorical.h"
#include "core/eagle_agent.h"
#include "core/group_embedding.h"
#include "core/grouper_ffn.h"
#include "lstm_chain_net.h"
#include "nn/layers.h"

namespace eagle::oracle {

inline nn::Var Row(nn::Tape& tape, nn::Var a, int r) {
  return tape.SliceRows(a, r, r + 1);
}

// LstmCell before the fused gate op: the same parameters, built in
// the same order from the same draws.
class LstmCell {
 public:
  using State = nn::LstmState;

  LstmCell() = default;
  LstmCell(nn::ParamStore& store, const std::string& name, int in_dim,
           int hidden, support::Rng& rng)
      : hidden_(hidden) {
    w_ = store.Create(name + "/w", in_dim + hidden, 4 * hidden);
    b_ = store.Create(name + "/b", 1, 4 * hidden);
    nn::XavierInit(w_->value, rng);
    for (int c = hidden; c < 2 * hidden; ++c) b_->value.at(0, c) = 1.0f;
  }

  State ZeroState(nn::Tape& tape, int rows) const {
    return State{tape.Input(nn::Tensor(rows, hidden_)),
                 tape.Input(nn::Tensor(rows, hidden_))};
  }

  State Step(nn::Tape& tape, nn::Var x, const State& prev) const {
    EAGLE_CHECK(w_ != nullptr);
    nn::Var xh = tape.ConcatCols(x, prev.h);
    nn::Var gates =
        tape.Add(tape.MatMul(xh, tape.Param(w_)), tape.Param(b_));
    return nn::chain::GateChain(tape, gates, prev.c, hidden_);
  }

 private:
  nn::Parameter* w_ = nullptr;
  nn::Parameter* b_ = nullptr;
  int hidden_ = 0;
};

class BiLstmEncoder {
 public:
  BiLstmEncoder() = default;
  BiLstmEncoder(nn::ParamStore& store, const std::string& name, int in_dim,
                int hidden, support::Rng& rng)
      : fwd_(store, name + "/fwd", in_dim, hidden, rng),
        bwd_(store, name + "/bwd", in_dim, hidden, rng) {}

  struct Output {
    nn::Var states;  // S×2H
    LstmCell::State final_fwd;
    LstmCell::State final_bwd;
  };
  Output Apply(nn::Tape& tape, nn::Var sequence) const {
    const int steps = tape.value(sequence).rows();
    EAGLE_CHECK(steps >= 1);
    std::vector<nn::Var> fwd_states(static_cast<std::size_t>(steps));
    std::vector<nn::Var> bwd_states(static_cast<std::size_t>(steps));
    LstmCell::State fs = fwd_.ZeroState(tape, 1);
    for (int t = 0; t < steps; ++t) {
      fs = fwd_.Step(tape, Row(tape, sequence, t), fs);
      fwd_states[static_cast<std::size_t>(t)] = fs.h;
    }
    LstmCell::State bs = bwd_.ZeroState(tape, 1);
    for (int t = steps - 1; t >= 0; --t) {
      bs = bwd_.Step(tape, Row(tape, sequence, t), bs);
      bwd_states[static_cast<std::size_t>(t)] = bs.h;
    }
    nn::Var fwd_all = tape.ConcatRows(fwd_states);
    nn::Var bwd_all = tape.ConcatRows(bwd_states);
    return Output{tape.ConcatCols(fwd_all, bwd_all), fs, bs};
  }

 private:
  LstmCell fwd_;
  LstmCell bwd_;
};

class BahdanauAttention {
 public:
  BahdanauAttention() = default;
  BahdanauAttention(nn::ParamStore& store, const std::string& name,
                    int enc_dim, int dec_dim, int attn_dim, support::Rng& rng)
      : w_enc_(store, name + "/enc", enc_dim, attn_dim, rng),
        w_dec_(store, name + "/dec", dec_dim, attn_dim, rng) {
    v_ = store.Create(name + "/v", attn_dim, 1);
    nn::XavierInit(v_->value, rng);
  }

  nn::Var ProjectEncoder(nn::Tape& tape, nn::Var encoder_states) const {
    return w_enc_.Apply(tape, encoder_states);  // S×attn
  }

  struct Result {
    nn::Var context;  // 1×enc_dim
    nn::Var weights;  // 1×S
  };
  Result Apply(nn::Tape& tape, nn::Var encoder_states, nn::Var encoder_proj,
               nn::Var decoder_state) const {
    EAGLE_CHECK(v_ != nullptr);
    nn::Var dec_proj = w_dec_.Apply(tape, decoder_state);  // 1×attn
    nn::Var pre = tape.Tanh(tape.Add(encoder_proj, dec_proj));  // S×attn
    nn::Var scores = tape.Transpose(tape.MatMul(pre, tape.Param(v_)));  // 1×S
    nn::Var weights = tape.Softmax(scores);
    nn::Var context = tape.MatMul(weights, encoder_states);  // 1×enc_dim
    return Result{context, weights};
  }

 private:
  nn::Linear w_enc_;
  nn::Linear w_dec_;
  nn::Parameter* v_ = nullptr;
};

class BridgeRnn {
 public:
  BridgeRnn() = default;
  BridgeRnn(nn::ParamStore& store, int grouper_hidden, int bridge_hidden,
            support::Rng& rng)
      : cell_(store, "bridge", grouper_hidden + 2, bridge_hidden, rng) {}

  nn::Var Apply(nn::Tape& tape, const core::GrouperFFN& grouper,
                nn::Var grouper_softmax,
                const graph::Grouping& grouping) const {
    const int k = grouper.num_groups();
    const int num_ops = tape.value(grouper_softmax).rows();
    EAGLE_CHECK(static_cast<int>(grouping.size()) == num_ops);

    nn::Var signatures = tape.Transpose(tape.Param(grouper.output_weights()));
    nn::Var mass = tape.Transpose(
        tape.Scale(tape.SumRows(grouper_softmax),
                   1.0f / static_cast<float>(num_ops)));  // k×1
    nn::Tensor counts(k, 1);
    for (int g : grouping) {
      counts.at(g, 0) += 1.0f / static_cast<float>(num_ops);
    }
    nn::Var count_share = tape.Input(std::move(counts));

    nn::Var inputs = tape.ConcatCols(tape.ConcatCols(signatures, mass),
                                     count_share);  // k × (hidden+2)
    std::vector<nn::Var> states(static_cast<std::size_t>(k));
    LstmCell::State state = cell_.ZeroState(tape, 1);
    for (int g = 0; g < k; ++g) {
      state = cell_.Step(tape, Row(tape, inputs, g), state);
      states[static_cast<std::size_t>(g)] = state.h;
    }
    return tape.ConcatRows(states);  // k × bridge_hidden
  }

 private:
  LstmCell cell_;
};

struct PlacerRollout {
  std::vector<std::int32_t> devices;
  nn::Var log_prob;  // 1×1
  nn::Var entropy;   // 1×1
};

class Seq2SeqPlacer {
 public:
  Seq2SeqPlacer() = default;
  Seq2SeqPlacer(nn::ParamStore& store, int input_dim, int hidden,
                int attn_dim, int device_embed_dim, int num_devices,
                core::AttentionVariant variant, support::Rng& rng)
      : encoder_(store, "placer/encoder", input_dim, hidden, rng),
        decoder_(store, "placer/decoder",
                 2 * hidden + device_embed_dim +
                     (variant == core::AttentionVariant::kBefore ? 2 * hidden
                                                                 : 0),
                 hidden, rng),
        attention_(store, "placer/attention", 2 * hidden, hidden, attn_dim,
                   rng),
        output_(store, "placer/output",
                variant == core::AttentionVariant::kAfter ? 3 * hidden
                                                          : hidden,
                num_devices, rng),
        num_devices_(num_devices),
        variant_(variant) {
    device_embedding_ = store.Create("placer/device_embedding",
                                     num_devices + 1, device_embed_dim);
    nn::XavierInit(device_embedding_->value, rng);
  }

  PlacerRollout Run(nn::Tape& tape, nn::Var group_embeddings,
                    support::Rng* rng,
                    std::span<const std::int32_t> forced) const {
    const int k = tape.value(group_embeddings).rows();
    EAGLE_CHECK(forced.empty() || static_cast<int>(forced.size()) == k);

    const auto enc = encoder_.Apply(tape, group_embeddings);
    nn::Var enc_proj = attention_.ProjectEncoder(tape, enc.states);

    PlacerRollout rollout;
    rollout.devices.resize(static_cast<std::size_t>(k));
    std::vector<nn::Var> picked_logps(static_cast<std::size_t>(k));
    std::vector<nn::Var> entropies(static_cast<std::size_t>(k));

    nn::Var device_table = tape.Param(device_embedding_);
    LstmCell::State state{enc.final_fwd.h, enc.final_fwd.c};
    int prev_device = num_devices_;  // <start> token
    for (int g = 0; g < k; ++g) {
      nn::Var x = tape.ConcatCols(Row(tape, enc.states, g),
                                  Row(tape, device_table, prev_device));
      nn::Var logits;
      if (variant_ == core::AttentionVariant::kBefore) {
        const auto attn =
            attention_.Apply(tape, enc.states, enc_proj, state.h);
        x = tape.ConcatCols(x, attn.context);
        state = decoder_.Step(tape, x, state);
        logits = output_.Apply(tape, state.h);
      } else {
        state = decoder_.Step(tape, x, state);
        const auto attn =
            attention_.Apply(tape, enc.states, enc_proj, state.h);
        logits = output_.Apply(tape, tape.ConcatCols(state.h, attn.context));
      }
      core::CategoricalHead head = core::Categorical(
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

 private:
  BiLstmEncoder encoder_;
  LstmCell decoder_;
  BahdanauAttention attention_;
  nn::Linear output_;
  nn::Parameter* device_embedding_ = nullptr;
  int num_devices_ = 0;
  core::AttentionVariant variant_ = core::AttentionVariant::kBefore;
};

// HierarchicalAgent's per-sample policy forward for the seq2seq placer
// configurations (EAGLE, Hierarchical Planner, fixed groupings).
class OracleAgent {
 public:
  OracleAgent(const graph::OpGraph& graph, const sim::ClusterSpec& cluster,
              const core::HierarchicalAgentConfig& config)
      : graph_(&graph), config_(config) {
    EAGLE_CHECK(config.placer == core::PlacerKind::kSeq2Seq);
    support::Rng rng(config.seed);
    const int k = config.dims.num_groups;
    const int embed_dim = core::GroupEmbeddingDim(k, true);
    const int bridge_dim = config.use_bridge ? config.dims.bridge_hidden : 0;
    if (learned()) {
      grouper_ = core::GrouperFFN(store_, core::OpFeatureDim(),
                                  config.dims.grouper_hidden, k, rng);
      if (config.use_bridge) {
        bridge_ = BridgeRnn(store_, config.dims.grouper_hidden,
                            config.dims.bridge_hidden, rng);
      }
      op_features_ = core::MakeOpFeatures(graph, config.features);
      locality_prior_ = core::MakeLocalityPrior(graph, k);
      grouper_weight_ = static_cast<double>(k) / std::max(1, graph.num_ops());
    } else {
      fixed_embeddings_ = core::MakeGroupEmbeddings(
          graph, config.fixed_grouping, k, config.features, true);
    }
    placer_ = Seq2SeqPlacer(store_, embed_dim + bridge_dim,
                            config.dims.placer_hidden, config.dims.attn_dim,
                            config.dims.device_embed_dim,
                            cluster.num_devices(), config.attention, rng);
  }

  nn::ParamStore& params() { return store_; }

  // The grouper distribution, built on `tape` (a sampling forward's
  // values are the same numbers as its cached copy).
  core::CategoricalDistribution Grouper(nn::Tape& tape) const {
    return core::MakeCategoricalDistribution(
        tape, grouper_.Logits(tape, tape.Input(op_features_),
                              &locality_prior_));
  }

  struct Output {
    graph::Grouping grouping;
    std::vector<std::int32_t> devices;
    nn::Var logp;
    nn::Var entropy;
  };
  // RunPolicy. `grouper` is unused when the grouper is fixed.
  Output Run(nn::Tape& tape, const core::CategoricalDistribution& grouper,
             support::Rng* rng, std::span<const std::int32_t> forced_grouping,
             std::span<const std::int32_t> forced_devices) const {
    const int k = config_.dims.num_groups;
    Output out;
    nn::Var group_embeddings;
    core::CategoricalHead grouped;
    if (learned()) {
      grouped = core::DecideCategorical(tape, grouper, rng, forced_grouping);
      out.grouping = std::move(grouped.choices);
      group_embeddings = tape.Input(core::MakeGroupEmbeddings(
          *graph_, out.grouping, k, config_.features, true));
      if (config_.use_bridge) {
        nn::Var conditioning =
            bridge_.Apply(tape, grouper_, grouped.probs, out.grouping);
        group_embeddings = tape.ConcatCols(group_embeddings, conditioning);
      }
    } else {
      group_embeddings = tape.Input(fixed_embeddings_);
    }
    PlacerRollout rollout =
        placer_.Run(tape, group_embeddings, rng, forced_devices);
    out.devices = std::move(rollout.devices);
    if (learned()) {
      out.logp = tape.Add(
          rollout.log_prob,
          tape.Scale(grouped.log_prob, static_cast<float>(grouper_weight_)));
      out.entropy = tape.Add(rollout.entropy, grouped.entropy);
    } else {
      out.logp = rollout.log_prob;
      out.entropy = rollout.entropy;
    }
    return out;
  }

  // SampleDecision's draws, on `tape`.
  Output Sample(nn::Tape& tape, support::Rng& rng) const {
    return Run(tape,
               learned() ? Grouper(tape) : core::CategoricalDistribution{},
               &rng, {}, {});
  }

  // ScoreDecision; `grouper` is the tape's shared distribution.
  Output Score(nn::Tape& tape, const core::CategoricalDistribution& grouper,
               const core::Sample& sample) const {
    return Run(tape, grouper, nullptr, sample.grouping,
               sample.group_devices);
  }

  bool learned() const {
    return config_.grouper == core::GrouperKind::kLearned;
  }

 private:
  const graph::OpGraph* graph_;
  core::HierarchicalAgentConfig config_;
  nn::ParamStore store_;
  core::GrouperFFN grouper_;
  BridgeRnn bridge_;
  Seq2SeqPlacer placer_;
  nn::Tensor op_features_;
  nn::Tensor locality_prior_;
  nn::Tensor fixed_embeddings_;
  double grouper_weight_ = 0.0;
};

}  // namespace eagle::oracle
