#include "nn/adam.h"

#include <cmath>
#include <string>

#include "nn/float_mode.h"
#include "support/metrics.h"

#if defined(EAGLE_SIMD) && defined(__AVX2__)
#define EAGLE_ADAM_SIMD 1
#include <immintrin.h>
#endif

namespace eagle::nn {

namespace {

// One step's constants, in double as the update computes them.
struct StepConstants {
  double beta1;
  double beta2;
  double bias1;
  double bias2;
  double lr;
  double eps;
};

// The update of element i: the moments in double, stored as float, then
// the bias-corrected step, subtracted in float.
void UpdateElement(const StepConstants& k, std::int64_t i, float* value,
                   const float* grad, float* m, float* v) {
  m[i] = static_cast<float>(k.beta1 * m[i] + (1.0 - k.beta1) * grad[i]);
  v[i] = static_cast<float>(k.beta2 * v[i] +
                            (1.0 - k.beta2) * grad[i] * grad[i]);
  const double m_hat = m[i] / k.bias1;
  const double v_hat = v[i] / k.bias2;
  value[i] -= static_cast<float>(k.lr * m_hat / (std::sqrt(v_hat) + k.eps));
}

// UpdateElement over [0, n): four elements at a time on double lanes
// behind EAGLE_SIMD, each lane running the same IEEE operations in the
// same order, so every element comes out as UpdateElement's.
void UpdateParameter(const StepConstants& k, std::int64_t n, float* value,
                     const float* grad, float* m, float* v) {
  std::int64_t i = 0;
#if EAGLE_ADAM_SIMD
  const __m256d beta1 = _mm256_set1_pd(k.beta1);
  const __m256d beta2 = _mm256_set1_pd(k.beta2);
  const __m256d rest1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d rest2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bias1 = _mm256_set1_pd(k.bias1);
  const __m256d bias2 = _mm256_set1_pd(k.bias2);
  const __m256d lr = _mm256_set1_pd(k.lr);
  const __m256d eps = _mm256_set1_pd(k.eps);
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(grad + i));
    const __m128 m_new = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta1, _mm256_cvtps_pd(_mm_loadu_ps(m + i))),
        _mm256_mul_pd(rest1, g)));
    const __m128 v_new = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_cvtps_pd(_mm_loadu_ps(v + i))),
        _mm256_mul_pd(_mm256_mul_pd(rest2, g), g)));
    _mm_storeu_ps(m + i, m_new);
    _mm_storeu_ps(v + i, v_new);
    const __m256d m_hat = _mm256_div_pd(_mm256_cvtps_pd(m_new), bias1);
    const __m256d v_hat = _mm256_div_pd(_mm256_cvtps_pd(v_new), bias2);
    const __m128 step = _mm256_cvtpd_ps(_mm256_div_pd(
        _mm256_mul_pd(lr, m_hat), _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps)));
    _mm_storeu_ps(value + i, _mm_sub_ps(_mm_loadu_ps(value + i), step));
  }
#endif
  for (; i < n; ++i) UpdateElement(k, i, value, grad, m, v);
}

}  // namespace

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
  const StepConstants k{
      options_.beta1,
      options_.beta2,
      1.0 - std::pow(options_.beta1, static_cast<double>(t_)),
      1.0 - std::pow(options_.beta2, static_cast<double>(t_)),
      options_.lr,
      options_.eps,
  };
  const auto& params = store_->params();
  if (slots_.size() < params.size()) slots_.resize(params.size());
  for (std::size_t idx = 0; idx < params.size(); ++idx) {
    const auto& p = params[idx];
    Slot& slot = slots_[idx];
    if (slot.m.empty()) {
      slot.m = Tensor(p->value.rows(), p->value.cols());
      slot.v = Tensor(p->value.rows(), p->value.cols());
    }
    UpdateParameter(k, p->value.size(), p->value.data(), p->grad.data(),
                    slot.m.data(), slot.v.data());
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
