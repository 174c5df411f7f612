// Dense fp32 matrix type used by the agent networks.
//
// Everything the agents compute (grouper logits, LSTM states, attention
// scores) is a rank-2 tensor; vectors are 1×C or R×1. Storage comes from
// the per-thread freelist arena (nn/arena.h) so tape-heavy training loops
// stop paying malloc per node. Kernels are one register-tile template
// over a vector type chosen at compile time (AVX-512 or AVX2 intrinsics
// behind EAGLE_SIMD, else a float array the compiler vectorizes) and are
// bit-identical to the naive triple-loop reference in nn/naive_ref.h: the
// accumulation order over k for each output element is exactly the
// reference's, only the loop nest around it changes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/check.h"

namespace eagle::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols, float fill = 0.0f);
  static Tensor FromData(int rows, int cols, std::vector<float> data);
  // Arena storage left as it is: whatever a recycled block last held. For
  // callers that write every element before anything reads one.
  static Tensor Uninitialized(int rows, int cols);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(rows_) * cols_;
  }
  bool empty() const { return size() == 0; }

  float& at(int r, int c) {
    EAGLE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  float at(int r, int c) const {
    EAGLE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  float* row(int r) { return data_ + static_cast<std::size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_ + static_cast<std::size_t>(r) * cols_;
  }

  void Fill(float v);
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  float* data_ = nullptr;  // arena-backed, rows_*cols_ floats
};

// out += a * b  (m×k times k×n), each output element folding over k from
// out's value; the forward product of Tape::MatMul and MatMul folds into
// a zero-filled out.
void GemmAccum(const Tensor& a, const Tensor& b, Tensor& out);
// out += aᵀ * b with the reduction rows given by pointer: row t of a is
// a_rows[t][0, out.rows()) and row t of b is b_rows[t][0, out.cols()), so
// rows from separate tensors fold in one pass without a packing copy.
// Each output element folds the rows in order, starting from out.
void GemmTransAAccumRows(std::span<const float* const> a_rows,
                         std::span<const float* const> b_rows, Tensor& out);
// out += a * b (m×k times k×n), where each output element folds from zero
// over k and is then added to out once. Given b = cᵀ, that is the
// rounding of a dot-product a·cᵀ (naive::GemmTransBAccum(a, c, out)),
// which is how the tape computes dA = G·Bᵀ from B's transposed copy.
void GemmAccumFromZero(const Tensor& a, const Tensor& b, Tensor& out);

// tᵀ as a new tensor.
Tensor Transposed(const Tensor& t);

// out = a * b (allocating convenience).
Tensor MatMul(const Tensor& a, const Tensor& b);

// y += alpha * x (same shape).
void Axpy(float alpha, const Tensor& x, Tensor& y);

// Sum of squares of all elements.
double SquaredNorm(const Tensor& t);

}  // namespace eagle::nn
