// Float environment for nn math: flush subnormals to zero.
//
// A softmax row whose logits sit ~90 below the row max underflows into
// the subnormal range, and on x86 every multiply-add on a subnormal
// operand takes a microcode assist costing tens to hundreds of cycles. The
// grouper head's backward GEMMs were spending most of their time in
// those assists. FlushDenormalsScope sets flush-to-zero (results) and
// denormals-are-zero (inputs) on the calling thread for its lifetime, and
// restores the thread's previous mode on destruction.
//
// Every nn::Tape holds one as its first member, and Adam::Step opens its
// own, so all tape ops, Backward and optimizer steps run flushed while
// simulator and environment code (which never runs under a tape) keeps
// default IEEE semantics. The mode is per thread and the scope never
// changes how a normal result is rounded, so output stays identical at
// any thread count; it differs from strict IEEE only where a subnormal
// intermediate would have changed a normal result.
//
// x86-64 sets MXCSR.FTZ|DAZ, AArch64 sets FPCR.FZ; other targets are
// left untouched. eagle-lint FP01 confines float-environment writes to
// float_mode.cpp.
#pragma once

#include <cstdint>

namespace eagle::nn {

class FlushDenormalsScope {
 public:
  FlushDenormalsScope();
  ~FlushDenormalsScope();
  FlushDenormalsScope(const FlushDenormalsScope&) = delete;
  FlushDenormalsScope& operator=(const FlushDenormalsScope&) = delete;

 private:
  std::uint64_t saved_ = 0;  // the thread's control register on entry
};

// True when the calling thread currently flushes subnormals (always false
// on targets the scope does not support).
bool DenormalsFlushed();

}  // namespace eagle::nn
