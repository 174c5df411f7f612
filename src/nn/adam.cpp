#include "nn/adam.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "nn/float_mode.h"
#include "support/check.h"
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

void Adam::SaveState(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(&t_), sizeof(t_));
  const auto& params = store_->params();
  const auto count = static_cast<std::uint32_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (std::size_t idx = 0; idx < params.size(); ++idx) {
    const auto& p = params[idx];
    const auto name_len = static_cast<std::uint32_t>(p->name.size());
    out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    out.write(p->name.data(), name_len);
    const std::uint8_t has_slot =
        idx < slots_.size() && !slots_[idx].m.empty() ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&has_slot), sizeof(has_slot));
    if (has_slot != 0) {
      const Slot& slot = slots_[idx];
      const auto n = static_cast<std::streamsize>(p->value.size() *
                                                  sizeof(float));
      out.write(reinterpret_cast<const char*>(slot.m.data()), n);
      out.write(reinterpret_cast<const char*>(slot.v.data()), n);
    }
  }
}

void Adam::LoadState(std::istream& in) {
  in.read(reinterpret_cast<char*>(&t_), sizeof(t_));
  std::uint32_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  EAGLE_CHECK_MSG(in, "truncated optimizer state");
  const auto& params = store_->params();
  slots_.assign(params.size(), Slot{});
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t name_len = 0;
    in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
    EAGLE_CHECK_MSG(in && name_len < (1u << 16), "corrupt optimizer state");
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    std::uint8_t has_slot = 0;
    in.read(reinterpret_cast<char*>(&has_slot), sizeof(has_slot));
    EAGLE_CHECK_MSG(in, "truncated optimizer state");
    std::size_t idx = params.size();
    for (std::size_t j = 0; j < params.size(); ++j) {
      if (params[j]->name == name) {
        idx = j;
        break;
      }
    }
    EAGLE_CHECK_MSG(idx < params.size(),
                    "optimizer state for unknown parameter " << name);
    Parameter* p = params[idx].get();
    if (has_slot == 0) {
      slots_[idx] = Slot{};
      continue;
    }
    Slot& slot = slots_[idx];
    slot.m = Tensor(p->value.rows(), p->value.cols());
    slot.v = Tensor(p->value.rows(), p->value.cols());
    const auto n =
        static_cast<std::streamsize>(p->value.size() * sizeof(float));
    in.read(reinterpret_cast<char*>(slot.m.data()), n);
    in.read(reinterpret_cast<char*>(slot.v.data()), n);
    EAGLE_CHECK_MSG(in, "truncated optimizer state");
  }
}

}  // namespace eagle::nn
