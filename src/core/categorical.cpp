#include "core/categorical.h"

#include "support/check.h"

namespace eagle::core {

namespace {

// Mean per-row entropy: -mean_rows Σ_c p log p.
nn::Var MeanEntropy(nn::Tape& tape, nn::Var log_probs, nn::Var probs) {
  return tape.Scale(tape.Sum(tape.Mul(probs, log_probs)),
                    -1.0f / static_cast<float>(tape.value(probs).rows()));
}

// One choice per row of `probs`: a draw each (rng set) or `forced`.
std::vector<std::int32_t> Choose(const nn::Tensor& probs, support::Rng* rng,
                                 std::span<const std::int32_t> forced) {
  EAGLE_CHECK_MSG((rng != nullptr) != !forced.empty(),
                  "pass exactly one of rng / forced choices");
  if (rng == nullptr) return {forced.begin(), forced.end()};
  std::vector<std::int32_t> choices(static_cast<std::size_t>(probs.rows()));
  for (int r = 0; r < probs.rows(); ++r) {
    choices[static_cast<std::size_t>(r)] =
        static_cast<std::int32_t>(rng->NextFromProbs(
            probs.row(r), static_cast<std::size_t>(probs.cols())));
  }
  return choices;
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
  CategoricalHead head;
  head.probs = dist.probs;
  head.entropy = dist.entropy;
  head.choices = Choose(tape.value(dist.probs), rng, forced);
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

CategoricalRows CategoricalPerRow(nn::Tape& tape, nn::Var logits,
                                  support::Rng* rng,
                                  std::span<const std::int32_t> forced) {
  nn::Var log_probs = tape.LogSoftmax(logits);
  nn::Var probs = tape.Softmax(logits);
  CategoricalRows head;
  head.choices = Choose(tape.value(probs), rng, forced);
  head.log_probs = tape.PickPerRow(
      log_probs, std::vector<int>(head.choices.begin(), head.choices.end()));
  head.entropies =
      tape.Scale(tape.RowSums(tape.Mul(probs, log_probs)), -1.0f);
  return head;
}

}  // namespace eagle::core
