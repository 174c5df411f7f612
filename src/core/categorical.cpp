#include "core/categorical.h"

#include "support/check.h"

namespace eagle::core {

CategoricalHead Categorical(nn::Tape& tape, nn::Var logits, support::Rng* rng,
                            std::span<const std::int32_t> forced) {
  EAGLE_CHECK_MSG((rng != nullptr) != !forced.empty(),
                  "pass exactly one of rng / forced choices");
  nn::Var logp = tape.LogSoftmax(logits);
  nn::Var probs = tape.Softmax(logits);
  const nn::Tensor& probs_value = tape.value(probs);
  const int rows = probs_value.rows();

  CategoricalHead head;
  head.probs = probs;
  if (rng == nullptr) {
    head.choices.assign(forced.begin(), forced.end());
  } else {
    head.choices.resize(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      head.choices[static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>(rng->NextFromProbs(
              probs_value.row(r),
              static_cast<std::size_t>(probs_value.cols())));
    }
  }
  // The gather rejects a forced decision of the wrong length or with a
  // choice outside [0, classes).
  head.log_prob = tape.Sum(tape.PickPerRow(
      logp, std::vector<int>(head.choices.begin(), head.choices.end())));
  // Mean per-row entropy: -mean_rows Σ_c p log p.
  head.entropy = tape.Scale(tape.Sum(tape.Mul(probs, logp)),
                            -1.0f / static_cast<float>(rows));
  return head;
}

}  // namespace eagle::core
