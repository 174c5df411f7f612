// FP01 suppression fixture: the same kind of writes as float_env.cpp,
// each waived with a justification.
#include <cfenv>
#include <xmmintrin.h>

namespace fixture {

void ReferenceRounding() {
  // interval-arithmetic oracle, restored below  eagle-lint: allow(FP01)
  std::fesetround(FE_UPWARD);
  std::fesetround(FE_TONEAREST);  // eagle-lint: allow(FP01) restore
}

void SetFpcr(unsigned long value) {
  // eagle-lint: allow(FP01) — fixture for the asm form
  __asm__ __volatile__("msr fpcr, %0" : : "r"(value));
}

}  // namespace fixture
