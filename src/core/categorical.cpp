#include "core/categorical.h"

#include "support/check.h"

namespace eagle::core {

namespace {

// Mean per-row entropy: -mean_rows Σ_c p log p.
nn::Var MeanEntropy(nn::Tape& tape, nn::Var log_probs, nn::Var probs) {
  return tape.Scale(tape.Sum(tape.Mul(probs, log_probs)),
                    -1.0f / static_cast<float>(tape.value(probs).rows()));
}

}  // namespace

CategoricalDistribution MakeCategoricalDistribution(nn::Tape& tape,
                                                    nn::Var logits) {
  CategoricalDistribution dist;
  dist.log_probs = tape.LogSoftmax(logits);
  dist.probs = tape.Softmax(logits);
  dist.entropy = MeanEntropy(tape, dist.log_probs, dist.probs);
  return dist;
}

CategoricalHead DecideCategorical(nn::Tape& tape,
                                  const CategoricalDistribution& dist,
                                  support::Rng* rng,
                                  std::span<const std::int32_t> forced) {
  EAGLE_CHECK_MSG((rng != nullptr) != !forced.empty(),
                  "pass exactly one of rng / forced choices");
  CategoricalHead head;
  head.probs = dist.probs;
  head.entropy = dist.entropy;
  if (rng == nullptr) {
    head.choices.assign(forced.begin(), forced.end());
  } else {
    const nn::Tensor& probs_value = tape.value(dist.probs);
    head.choices.resize(static_cast<std::size_t>(probs_value.rows()));
    for (int r = 0; r < probs_value.rows(); ++r) {
      head.choices[static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>(rng->NextFromProbs(
              probs_value.row(r),
              static_cast<std::size_t>(probs_value.cols())));
    }
  }
  // The gather rejects a forced decision of the wrong length or with a
  // choice outside [0, classes).
  head.log_prob = tape.Sum(tape.PickPerRow(
      dist.log_probs,
      std::vector<int>(head.choices.begin(), head.choices.end())));
  return head;
}

CategoricalHead Categorical(nn::Tape& tape, nn::Var logits, support::Rng* rng,
                            std::span<const std::int32_t> forced) {
  // The entropy goes on the tape after the gather, the op order every
  // placer has always run, so their bytes do not depend on the split.
  CategoricalDistribution dist;
  dist.log_probs = tape.LogSoftmax(logits);
  dist.probs = tape.Softmax(logits);
  CategoricalHead head = DecideCategorical(tape, dist, rng, forced);
  head.entropy = MeanEntropy(tape, dist.log_probs, dist.probs);
  return head;
}

}  // namespace eagle::core
