#include "rl/value_baseline.h"

#include "nn/serialize.h"
#include "support/check.h"

namespace eagle::rl {

ValueBaseline::ValueBaseline(int num_devices, ValueBaselineOptions options)
    : num_devices_(num_devices),
      options_(options),
      optimizer_(store_, nn::AdamOptions{.lr = options.lr,
                                         .beta1 = 0.9,
                                         .beta2 = 0.999,
                                         .eps = 1e-8,
                                         .clip_norm = 1.0}) {
  EAGLE_CHECK(num_devices >= 1);
  support::Rng rng(options_.seed);
  l1_ = nn::Linear(store_, "value/l1", num_devices, options_.hidden, rng);
  l2_ = nn::Linear(store_, "value/l2", options_.hidden, 1, rng);
}

nn::Tensor ValueBaseline::Featurize(const core::Sample& sample) const {
  nn::Tensor features(1, num_devices_);
  if (!sample.group_devices.empty()) {
    const float share =
        1.0f / static_cast<float>(sample.group_devices.size());
    for (auto device : sample.group_devices) {
      EAGLE_CHECK(device >= 0 && device < num_devices_);
      features.at(0, device) += share;
    }
  }
  return features;
}

double ValueBaseline::Predict(const core::Sample& sample) const {
  nn::Tape tape;
  nn::Var x = tape.Input(Featurize(sample));
  // Const-cast free: layers only read parameters on the forward path.
  nn::Var v = l2_.Apply(tape, tape.Tanh(l1_.Apply(tape, x)));
  return static_cast<double>(tape.value(v).at(0, 0));
}

double ValueBaseline::Update(const std::vector<core::Sample>& batch) {
  if (batch.empty()) return 0.0;
  double first_mse = 0.0;
  for (int epoch = 0; epoch < options_.epochs_per_batch; ++epoch) {
    nn::Tape tape;
    nn::Var loss;
    bool first = true;
    for (const core::Sample& sample : batch) {
      nn::Var x = tape.Input(Featurize(sample));
      nn::Var v = l2_.Apply(tape, tape.Tanh(l1_.Apply(tape, x)));
      nn::Var err = tape.AddScalar(v, -static_cast<float>(sample.reward));
      nn::Var sq = tape.Mul(err, err);
      loss = first ? sq : tape.Add(loss, sq);
      first = false;
    }
    loss = tape.Scale(loss, 1.0f / static_cast<float>(batch.size()));
    if (epoch == 0) {
      first_mse = static_cast<double>(tape.value(loss).at(0, 0));
    }
    tape.Backward(loss);
    optimizer_.Step();
  }
  return first_mse;
}

void ValueBaseline::SaveState(support::ByteWriter& out) const {
  nn::SaveParams(store_, out);
  optimizer_.SaveState(out);
}

void ValueBaseline::LoadState(support::ByteReader& in) {
  nn::LoadParams(store_, in);
  optimizer_.LoadState(in);
}

}  // namespace eagle::rl
