// FP01 fixture: writes to the float environment outside the nn flush
// scope. Reads (_mm_getcsr, fegetround), member calls, strings outside
// asm, and mentions in comments such as fesetround(x) stay clean.
#include <cfenv>
#include <xmmintrin.h>

namespace fixture {

void FlushEverything() {
  _mm_setcsr(_mm_getcsr() | 0x8040);                  // line 10: FP01
  _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);          // line 11: FP01
  _MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_ON);  // line 12: FP01
}

void RoundDown(const std::fenv_t* env) {
  std::fesetround(FE_DOWNWARD);  // line 16: FP01
  std::fesetenv(env);            // line 17: FP01
}

void SetFpcr(unsigned long value) {
  __asm__ __volatile__("msr fpcr, %0" : : "r"(value));  // line 21: FP01
}

int ReadOnly(Harness& h) {
  const char* note = "msr fpcr is only asm when it is in asm";
  h.fesetround(1);
  return static_cast<int>(_mm_getcsr()) + std::fegetround() + note[0];
}

}  // namespace fixture
