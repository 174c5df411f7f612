#include "nn/adam.h"

#include <cmath>
#include <string>

#include "nn/float_mode.h"
#include "support/metrics.h"

namespace eagle::nn {

Adam::Adam(ParamStore& store, AdamOptions options)
    : store_(&store), options_(options) {}

double Adam::Step() {
  EAGLE_SPAN("adam.step");
  // Callers usually step while their tape is alive; do not rely on it.
  FlushDenormalsScope flush;
  const double norm = options_.clip_norm > 0
                          ? store_->ClipGradNorm(options_.clip_norm)
                          : store_->GradNorm();
  ++t_;
  const double bias1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  const auto& params = store_->params();
  if (slots_.size() < params.size()) slots_.resize(params.size());
  for (std::size_t idx = 0; idx < params.size(); ++idx) {
    const auto& p = params[idx];
    Slot& slot = slots_[idx];
    if (slot.m.empty()) {
      slot.m = Tensor(p->value.rows(), p->value.cols());
      slot.v = Tensor(p->value.rows(), p->value.cols());
    }
    float* value = p->value.data();
    float* grad = p->grad.data();
    float* m = slot.m.data();
    float* v = slot.v.data();
    const auto n = p->value.size();
    for (std::int64_t i = 0; i < n; ++i) {
      m[i] = static_cast<float>(options_.beta1 * m[i] +
                                (1.0 - options_.beta1) * grad[i]);
      v[i] = static_cast<float>(options_.beta2 * v[i] +
                                (1.0 - options_.beta2) * grad[i] * grad[i]);
      const double m_hat = m[i] / bias1;
      const double v_hat = v[i] / bias2;
      value[i] -= static_cast<float>(options_.lr * m_hat /
                                     (std::sqrt(v_hat) + options_.eps));
    }
  }
  store_->ZeroGrads();
  return norm;
}

void Adam::SaveState(support::ByteWriter& out) const {
  out.Put(t_);
  const auto& params = store_->params();
  out.Put(static_cast<std::uint32_t>(params.size()));
  for (std::size_t idx = 0; idx < params.size(); ++idx) {
    const Parameter& p = *params[idx];
    out.PutName(p.name);
    const bool has_slot = idx < slots_.size() && !slots_[idx].m.empty();
    out.Put(static_cast<std::uint8_t>(has_slot));
    if (has_slot) {
      const auto n = static_cast<std::size_t>(p.value.size()) * sizeof(float);
      out.Write(slots_[idx].m.data(), n);
      out.Write(slots_[idx].v.data(), n);
    }
  }
}

void Adam::LoadState(support::ByteReader& in) {
  t_ = in.Get<std::int64_t>();
  const auto& params = store_->params();
  // Smallest entry: name length and slot flag.
  in.ExpectCount(params.size(), 5, "optimizer slots");
  slots_.assign(params.size(), Slot{});
  for (std::size_t idx = 0; idx < params.size(); ++idx) {
    const Parameter& p = *params[idx];
    const std::size_t name_at = in.offset();
    if (in.Name() != p.name) {
      in.Fail(name_at, "expected optimizer slot for '" + p.name + "'");
    }
    if (in.Get<std::uint8_t>() == 0) continue;
    const auto n = static_cast<std::size_t>(p.value.size()) * sizeof(float);
    for (Tensor* moment : {&slots_[idx].m, &slots_[idx].v}) {
      *moment = Tensor(p.value.rows(), p.value.cols());
      in.Read(moment->data(), n);
    }
  }
}

}  // namespace eagle::nn
