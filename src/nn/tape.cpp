#include "nn/tape.h"

#include <algorithm>
#include <cmath>

#include "nn/expf.h"
#include "nn/gemm_inner.h"
#include "nn/tanh.h"
#include "support/metrics.h"

namespace eagle::nn {

using detail::MulAdd;

void Tape::Reset() {
  // Transposed copies first, then the nodes newest-first, so tensor
  // buffers hit the arena freelists in LIFO order (vector::clear would
  // destroy nodes front-to-back).
  rhs_.clear();
  queued_.clear();
  while (!nodes_.empty()) nodes_.pop_back();
  param_cache_.clear();
  memo_.clear();
}

Tape::Node& Tape::node(Var v) {
  EAGLE_CHECK_MSG(v.id >= 0 && v.id < num_nodes(), "invalid Var");
  return nodes_[static_cast<std::size_t>(v.id)];
}

const Tape::Node& Tape::node(Var v) const {
  EAGLE_CHECK_MSG(v.id >= 0 && v.id < num_nodes(), "invalid Var");
  return nodes_[static_cast<std::size_t>(v.id)];
}

Tensor& Tape::GradStorage(Node& n) {
  if (n.grad.empty() && !n.value.empty()) {
    n.grad = Tensor(n.value.rows(), n.value.cols());
  }
  return n.grad;
}

Tensor& Tape::GradRef(Var v) {
  Node& n = node(v);
  FlushQueued(n);
  return GradStorage(n);
}

Tape::RightOperand& Tape::Rhs(Var b) {
  Node& n = node(b);
  if (n.rhs < 0) {
    n.rhs = static_cast<std::int32_t>(rhs_.size());
    rhs_.emplace_back();
  }
  return rhs_[static_cast<std::size_t>(n.rhs)];
}

// Folds B's queued dB += Aᵀ·G products into its grad: every element
// folds the queued rows in queue order from the grad's current value,
// which is exactly the sequence of folding in one product at a time.
void Tape::FlushQueued(Node& b) {
  if (b.rhs < 0) return;
  RightOperand& rhs = rhs_[static_cast<std::size_t>(b.rhs)];
  if (rhs.head < 0) return;
  for (std::int32_t i = rhs.head; i >= 0;
       i = queued_[static_cast<std::size_t>(i)].next) {
    const QueuedProduct& q = queued_[static_cast<std::size_t>(i)];
    const Tensor& a = value(Var{q.a});
    const Tensor& g = node(Var{q.g}).grad;
    for (int r = 0; r < a.rows(); ++r) {
      a_rows_.push_back(a.row(r));
      g_rows_.push_back(g.row(r));
    }
  }
  GemmTransAAccumRows(a_rows_, g_rows_, GradStorage(b));
  a_rows_.clear();
  g_rows_.clear();
  rhs.head = rhs.tail = -1;
}

Var Tape::Push(Tensor value, bool needs_grad, BackwardFn backward) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return Var{static_cast<std::int32_t>(nodes_.size()) - 1};
}

Var Tape::Input(Tensor value) { return Push(std::move(value), false, {}); }

Var Tape::Param(Parameter* parameter) {
  EAGLE_CHECK(parameter != nullptr);
  for (const auto& [cached, var] : param_cache_) {
    if (cached == parameter) return var;
  }
  Var v = Push(parameter->value, true, {});
  node(v).bound = parameter;
  param_cache_.emplace_back(parameter, v);
  return v;
}

const std::vector<Var>* Tape::FindMemo(const void* key) const {
  for (const auto& [owner, vars] : memo_) {
    if (owner == key) return &vars;
  }
  return nullptr;
}

void Tape::Memoize(const void* key, std::vector<Var> vars) {
  EAGLE_CHECK_MSG(FindMemo(key) == nullptr, "memo key already set");
  memo_.emplace_back(key, std::move(vars));
}

const Tensor& Tape::value(Var v) const { return node(v).value; }
const Tensor& Tape::grad(Var v) const { return node(v).grad; }

Var Tape::MatMul(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  Tensor out(av.rows(), bv.cols());
  GemmAccum(av, bv, out);
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    // dA = G·Bᵀ runs now, against B's transposed copy. dB += Aᵀ·G is
    // queued on B and folded in one pass with B's other queued products
    // (FlushQueued) before anything else reads or writes B's grad.
    node(result).backward = [this, a, b, result]() {
      RightOperand& rhs = Rhs(b);
      if (node(a).needs_grad) {
        if (rhs.transposed.empty()) rhs.transposed = Transposed(value(b));
        GemmAccumFromZero(node(result).grad, rhs.transposed, GradRef(a));
      }
      if (node(b).needs_grad) {
        const auto i = static_cast<std::int32_t>(queued_.size());
        queued_.push_back({a.id, result.id, -1});
        if (rhs.tail < 0) {
          rhs.head = i;
        } else {
          queued_[static_cast<std::size_t>(rhs.tail)].next = i;
        }
        rhs.tail = i;
      }
    };
  }
  return result;
}

Var Tape::Add(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  const int period = bv.rows();
  EAGLE_CHECK_MSG(av.cols() == bv.cols() &&
                      (period == av.rows() ||
                       (period > 0 && av.rows() % period == 0)),
                  "Add shape mismatch " << av.ShapeString() << " + "
                                        << bv.ShapeString());
  Tensor out = av;
  for (int r = 0; r < out.rows(); ++r) {
    const float* brow = bv.row(r % period);
    float* orow = out.row(r);
    for (int c = 0; c < out.cols(); ++c) orow[c] += brow[c];
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, b, result, period]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) Axpy(1.0f, g, GradRef(a));
      if (node(b).needs_grad) {
        Tensor& gb = GradRef(b);
        if (period == g.rows()) {
          Axpy(1.0f, g, gb);
        } else {
          for (int r = 0; r < g.rows(); ++r) {
            const float* grow = g.row(r);
            float* brow = gb.row(r % period);
            for (int c = 0; c < g.cols(); ++c) brow[c] += grow[c];
          }
        }
      }
    };
  }
  return result;
}

Var Tape::Sub(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.SameShape(bv), "Sub shape mismatch");
  Tensor out = av;
  Axpy(-1.0f, bv, out);
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, b, result]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) Axpy(1.0f, g, GradRef(a));
      if (node(b).needs_grad) Axpy(-1.0f, g, GradRef(b));
    };
  }
  return result;
}

Var Tape::Mul(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.SameShape(bv), "Mul shape mismatch " << av.ShapeString()
                                                          << " vs "
                                                          << bv.ShapeString());
  Tensor out = av;
  {
    float* od = out.data();
    const float* bd = bv.data();
    for (std::int64_t i = 0; i < out.size(); ++i) od[i] *= bd[i];
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, b, result]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) {
        Tensor& ga = GradRef(a);
        const float* gd = g.data();
        const float* bd = value(b).data();
        float* gad = ga.data();
        for (std::int64_t i = 0; i < g.size(); ++i) gad[i] += gd[i] * bd[i];
      }
      if (node(b).needs_grad) {
        Tensor& gb = GradRef(b);
        const float* gd = g.data();
        const float* ad = value(a).data();
        float* gbd = gb.data();
        for (std::int64_t i = 0; i < g.size(); ++i) gbd[i] += gd[i] * ad[i];
      }
    };
  }
  return result;
}

Var Tape::Scale(Var a, float s) {
  Tensor out = value(a);
  float* od = out.data();
  for (std::int64_t i = 0; i < out.size(); ++i) od[i] *= s;
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result, s]() {
      Axpy(s, node(result).grad, GradRef(a));
    };
  }
  return result;
}

Var Tape::AddScalar(Var a, float s) {
  Tensor out = value(a);
  float* od = out.data();
  for (std::int64_t i = 0; i < out.size(); ++i) od[i] += s;
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      Axpy(1.0f, node(result).grad, GradRef(a));
    };
  }
  return result;
}

namespace {
template <typename F>
Tensor MapTensor(const Tensor& in, F f) {
  Tensor out = in;
  float* d = out.data();
  for (std::int64_t i = 0; i < out.size(); ++i) d[i] = f(d[i]);
  return out;
}

std::span<float> Span(Tensor& t) {
  return {t.data(), static_cast<std::size_t>(t.size())};
}
std::span<float> Span(float* data, int count) {
  return {data, static_cast<std::size_t>(count)};
}

float RowMax(const float* in, int cols) {
  float mx = in[0];
  for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
  return mx;
}

// out[r, c] = ExpF(in[r, c] - max_c in[r, ·]): the exps of a row-wise
// softmax, one vector pass over the whole tensor.
Tensor ShiftedExps(const Tensor& in) {
  Tensor out = Tensor::Uninitialized(in.rows(), in.cols());
  for (int r = 0; r < in.rows(); ++r) {
    const float* row = in.row(r);
    const float mx = RowMax(row, in.cols());
    float* o = out.row(r);
    for (int c = 0; c < in.cols(); ++c) o[c] = row[c] - mx;
  }
  ExpInPlace(Span(out));
  return out;
}

float RowSum(const float* in, int cols) {
  float sum = 0.0f;
  for (int c = 0; c < cols; ++c) sum += in[c];
  return sum;
}
}  // namespace

Var Tape::Tanh(Var a) {
  Tensor out = value(a);
  TanhInPlace(Span(out));
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        gad[i] += gd[i] * (1.0f - yd[i] * yd[i]);
    };
  }
  return result;
}

Var Tape::Sigmoid(Var a) {
  Tensor out = value(a);
  SigmoidInPlace(Span(out));
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        gad[i] += gd[i] * yd[i] * (1.0f - yd[i]);
    };
  }
  return result;
}

Var Tape::Relu(Var a) {
  Tensor out = MapTensor(value(a), [](float x) { return x > 0 ? x : 0.0f; });
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        gad[i] += yd[i] > 0 ? gd[i] : 0.0f;
    };
  }
  return result;
}

Var Tape::Exp(Var a) {
  Tensor out = value(a);
  ExpInPlace(Span(out));
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i) gad[i] += gd[i] * yd[i];
    };
  }
  return result;
}

Var Tape::MinElem(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.SameShape(bv), "MinElem shape mismatch");
  Tensor out = av;
  {
    float* od = out.data();
    const float* bd = bv.data();
    for (std::int64_t i = 0; i < out.size(); ++i)
      od[i] = std::min(od[i], bd[i]);
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, b, result]() {
      const Tensor& g = node(result).grad;
      const float* ad = value(a).data();
      const float* bd = value(b).data();
      const float* gd = g.data();
      // Ties route the gradient to `a` (subgradient choice).
      if (node(a).needs_grad) {
        float* ga = GradRef(a).data();
        for (std::int64_t i = 0; i < g.size(); ++i)
          if (ad[i] <= bd[i]) ga[i] += gd[i];
      }
      if (node(b).needs_grad) {
        float* gb = GradRef(b).data();
        for (std::int64_t i = 0; i < g.size(); ++i)
          if (ad[i] > bd[i]) gb[i] += gd[i];
      }
    };
  }
  return result;
}

Var Tape::Clamp(Var a, float lo, float hi) {
  EAGLE_CHECK(lo <= hi);
  Tensor out = MapTensor(value(a), [lo, hi](float x) {
    return std::min(hi, std::max(lo, x));
  });
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result, lo, hi]() {
      const Tensor& g = node(result).grad;
      const float* ad = value(a).data();
      const float* gd = g.data();
      float* ga = GradRef(a).data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        if (ad[i] >= lo && ad[i] <= hi) ga[i] += gd[i];
    };
  }
  return result;
}

Var Tape::Softmax(Var a) {
  Tensor out = ShiftedExps(value(a));
  for (int r = 0; r < out.rows(); ++r) {
    float* o = out.row(r);
    const float sum = RowSum(o, out.cols());
    for (int c = 0; c < out.cols(); ++c) o[c] /= sum;
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r) {
        const float* gr = g.row(r);
        const float* yr = y.row(r);
        float* gar = ga.row(r);
        float dot = 0.0f;
        for (int c = 0; c < g.cols(); ++c) dot += gr[c] * yr[c];
        for (int c = 0; c < g.cols(); ++c) gar[c] += yr[c] * (gr[c] - dot);
      }
    };
  }
  return result;
}

Var Tape::LogSoftmax(Var a) {
  const Tensor& av = value(a);
  Tensor out = ShiftedExps(av);
  for (int r = 0; r < av.rows(); ++r) {
    const float* in = av.row(r);
    float* o = out.row(r);
    const float lse = RowMax(in, av.cols()) + std::log(RowSum(o, av.cols()));
    for (int c = 0; c < av.cols(); ++c) o[c] = in[c] - lse;
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      Tensor probs = node(result).value;  // log-probs, then their exps
      ExpInPlace(Span(probs));
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r) {
        const float* gr = g.row(r);
        const float* pr = probs.row(r);
        float* gar = ga.row(r);
        const float gsum = RowSum(gr, g.cols());
        for (int c = 0; c < g.cols(); ++c) gar[c] += gr[c] - pr[c] * gsum;
      }
    };
  }
  return result;
}

Var Tape::Transpose(Var a) {
  Tensor out = Transposed(value(a));
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r)
        for (int c = 0; c < g.cols(); ++c) ga.at(c, r) += g.at(r, c);
    };
  }
  return result;
}

Var Tape::ConcatCols(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.rows() == bv.rows(), "ConcatCols row mismatch");
  Tensor out = Tensor::Uninitialized(av.rows(), av.cols() + bv.cols());
  for (int r = 0; r < av.rows(); ++r) {
    std::copy(av.row(r), av.row(r) + av.cols(), out.row(r));
    std::copy(bv.row(r), bv.row(r) + bv.cols(), out.row(r) + av.cols());
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  // Hoisted before Push: `av` dangles once Push reallocates the tape.
  const int ac = av.cols();
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, b, result, ac]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) {
        Tensor& ga = GradRef(a);
        for (int r = 0; r < ga.rows(); ++r)
          for (int c = 0; c < ga.cols(); ++c) ga.at(r, c) += g.at(r, c);
      }
      if (node(b).needs_grad) {
        Tensor& gb = GradRef(b);
        for (int r = 0; r < gb.rows(); ++r)
          for (int c = 0; c < gb.cols(); ++c) gb.at(r, c) += g.at(r, c + ac);
      }
    };
  }
  return result;
}

Var Tape::ConcatRows(const std::vector<Var>& rows) {
  EAGLE_CHECK(!rows.empty());
  const int cols = value(rows[0]).cols();
  int total = 0;
  bool ng = false;
  for (Var v : rows) {
    EAGLE_CHECK_MSG(value(v).cols() == cols, "ConcatRows col mismatch");
    total += value(v).rows();
    ng = ng || node(v).needs_grad;
  }
  Tensor out = Tensor::Uninitialized(total, cols);
  int offset = 0;
  for (Var v : rows) {
    const Tensor& t = value(v);
    std::copy(t.data(), t.data() + t.size(), out.row(offset));
    offset += t.rows();
  }
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    std::vector<Var> captured = rows;
    node(result).backward = [this, captured, result]() {
      const Tensor& g = node(result).grad;
      int off = 0;
      for (Var v : captured) {
        const int r = value(v).rows();
        if (node(v).needs_grad) {
          Tensor& gv = GradRef(v);
          for (int i = 0; i < r; ++i)
            for (int c = 0; c < g.cols(); ++c)
              gv.at(i, c) += g.at(off + i, c);
        }
        off += r;
      }
    };
  }
  return result;
}

Var Tape::SliceCols(Var a, int c0, int c1) {
  const Tensor& av = value(a);
  EAGLE_CHECK_MSG(0 <= c0 && c0 < c1 && c1 <= av.cols(),
                  "SliceCols [" << c0 << "," << c1 << ") of "
                                << av.ShapeString());
  Tensor out = Tensor::Uninitialized(av.rows(), c1 - c0);
  for (int r = 0; r < av.rows(); ++r)
    std::copy(av.row(r) + c0, av.row(r) + c1, out.row(r));
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result, c0]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r)
        for (int c = 0; c < g.cols(); ++c) ga.at(r, c + c0) += g.at(r, c);
    };
  }
  return result;
}

Var Tape::SliceRows(Var a, int r0, int r1) {
  const Tensor& av = value(a);
  EAGLE_CHECK_MSG(0 <= r0 && r0 < r1 && r1 <= av.rows(),
                  "SliceRows [" << r0 << "," << r1 << ") of "
                                << av.ShapeString());
  Tensor out = Tensor::Uninitialized(r1 - r0, av.cols());
  std::copy(av.row(r0), av.row(r1), out.data());
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result, r0]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r)
        for (int c = 0; c < g.cols(); ++c) ga.at(r0 + r, c) += g.at(r, c);
    };
  }
  return result;
}

Var Tape::GatherRows(Var a, std::vector<int> idx) {
  const Tensor& av = value(a);
  Tensor out =
      Tensor::Uninitialized(static_cast<int>(idx.size()), av.cols());
  for (int i = 0; i < out.rows(); ++i) {
    const int r = idx[static_cast<std::size_t>(i)];
    EAGLE_CHECK_MSG(r >= 0 && r < av.rows(),
                    "GatherRows row " << r << " of " << av.ShapeString());
    std::copy(av.row(r), av.row(r) + av.cols(), out.row(i));
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result, idx = std::move(idx)]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int i = 0; i < g.rows(); ++i) {
        const int r = idx[static_cast<std::size_t>(i)];
        for (int c = 0; c < g.cols(); ++c) ga.at(r, c) += g.at(i, c);
      }
    };
  }
  return result;
}

Var Tape::Reshape(Var a, int rows, int cols) {
  const Tensor& av = value(a);
  EAGLE_CHECK_MSG(rows >= 0 && cols >= 0 &&
                      static_cast<std::int64_t>(rows) * cols == av.size(),
                  "Reshape " << av.ShapeString() << " to " << rows << "x"
                             << cols);
  Tensor out = Tensor::Uninitialized(rows, cols);
  std::copy(av.data(), av.data() + av.size(), out.data());
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i) gad[i] += gd[i];
    };
  }
  return result;
}

Var Tape::Sum(Var a) {
  const Tensor& av = value(a);
  float total = 0.0f;
  const float* d = av.data();
  for (std::int64_t i = 0; i < av.size(); ++i) total += d[i];
  Tensor out = Tensor::Uninitialized(1, 1);
  out.at(0, 0) = total;
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const float g = node(result).grad.at(0, 0);
      Tensor& ga = GradRef(a);
      float* gd = ga.data();
      for (std::int64_t i = 0; i < ga.size(); ++i) gd[i] += g;
    };
  }
  return result;
}

Var Tape::Mean(Var a) {
  const auto n = static_cast<float>(value(a).size());
  return Scale(Sum(a), 1.0f / n);
}

Var Tape::SumRows(Var a) {
  const Tensor& av = value(a);
  Tensor out(1, av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    const float* row = av.row(r);
    float* o = out.row(0);
    for (int c = 0; c < av.cols(); ++c) o[c] += row[c];
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < ga.rows(); ++r)
        for (int c = 0; c < ga.cols(); ++c) ga.at(r, c) += g.at(0, c);
    };
  }
  return result;
}

Var Tape::RowSums(Var a) {
  const Tensor& av = value(a);
  Tensor out = Tensor::Uninitialized(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    const float* row = av.row(r);
    float total = 0.0f;
    for (int c = 0; c < av.cols(); ++c) total += row[c];
    out.at(r, 0) = total;
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < ga.rows(); ++r)
        for (int c = 0; c < ga.cols(); ++c) ga.at(r, c) += g.at(r, 0);
    };
  }
  return result;
}

Var Tape::PickPerRow(Var a, std::vector<int> idx) {
  const Tensor& av = value(a);
  EAGLE_CHECK_MSG(static_cast<int>(idx.size()) == av.rows(),
                  "PickPerRow needs one index per row");
  Tensor out = Tensor::Uninitialized(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    EAGLE_CHECK_MSG(idx[static_cast<std::size_t>(r)] >= 0 &&
                        idx[static_cast<std::size_t>(r)] < av.cols(),
                    "PickPerRow index out of range");
    out.at(r, 0) = av.at(r, idx[static_cast<std::size_t>(r)]);
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, a, result, idx = std::move(idx)]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r)
        ga.at(r, idx[static_cast<std::size_t>(r)]) += g.at(r, 0);
    };
  }
  return result;
}

Var Tape::LaneProduct(Var w, Var e) {
  const Tensor& wv = value(w);
  const Tensor& ev = value(e);
  const int lanes = wv.rows();
  const int steps = wv.cols();
  EAGLE_CHECK_MSG(ev.rows() == lanes * steps,
                  "LaneProduct " << wv.ShapeString() << " lanes over "
                                 << ev.ShapeString());
  Tensor out(lanes, ev.cols());
  for (int b = 0; b < lanes; ++b) {
    const float* wr = wv.row(b);
    float* o = out.row(b);
    for (int t = 0; t < steps; ++t) {
      const float* er = ev.row(t * lanes + b);
      for (int c = 0; c < ev.cols(); ++c) o[c] = MulAdd(wr[t], er[c], o[c]);
    }
  }
  const bool ng = node(w).needs_grad || node(e).needs_grad;
  Var result = Push(std::move(out), ng, {});
  if (ng) {
    node(result).backward = [this, w, e, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& wv = value(w);
      const Tensor& ev = value(e);
      const int lanes = wv.rows();
      if (node(w).needs_grad) {
        // dw[b, t] = Σ_c g[b, c] · e[t·B + b, c], eight dot products at a
        // time: each folds c in ascending order from zero, as
        // GemmAccumFromZero does, and the chains only overlap their fma
        // latency. A short last block repeats its last row and drops it.
        constexpr int kChains = 8;
        Tensor& gw = GradRef(w);
        for (int b = 0; b < lanes; ++b) {
          const float* gr = g.row(b);
          for (int t0 = 0; t0 < wv.cols(); t0 += kChains) {
            const int n = std::min(kChains, wv.cols() - t0);
            const float* rows[kChains];
            for (int j = 0; j < kChains; ++j) {
              rows[j] = ev.row((t0 + std::min(j, n - 1)) * lanes + b);
            }
            float acc[kChains] = {};
            for (int c = 0; c < g.cols(); ++c) {
              for (int j = 0; j < kChains; ++j) {
                acc[j] = MulAdd(gr[c], rows[j][c], acc[j]);
              }
            }
            for (int j = 0; j < n; ++j) gw.at(b, t0 + j) += acc[j];
          }
        }
      }
      if (node(e).needs_grad) {
        Tensor& ge = GradRef(e);
        for (int t = 0; t < wv.cols(); ++t) {
          for (int b = 0; b < lanes; ++b) {
            const float wt = wv.at(b, t);
            const float* gr = g.row(b);
            float* er = ge.row(t * lanes + b);
            for (int c = 0; c < g.cols(); ++c) er[c] = MulAdd(wt, gr[c], er[c]);
          }
        }
      }
    };
  }
  return result;
}

LstmState Tape::LstmGates(Var gates, Var c) {
  const Tensor& gv = value(gates);
  const Tensor& cv = value(c);
  const int rows = cv.rows();
  const int h = cv.cols();
  EAGLE_CHECK_MSG(gv.rows() == rows && gv.cols() == 4 * h,
                  "LstmGates " << gv.ShapeString() << " gates for a "
                               << cv.ShapeString() << " cell");
  // Row r of acts holds [i f g o tanh(c')].
  Tensor acts = Tensor::Uninitialized(rows, 5 * h);
  Tensor c_out = Tensor::Uninitialized(rows, h);
  Tensor h_out = Tensor::Uninitialized(rows, h);
  for (int r = 0; r < rows; ++r) {
    float* i = acts.row(r);
    float* f = i + h;
    float* g = f + h;
    float* o = g + h;
    float* tc = o + h;
    std::copy(gv.row(r), gv.row(r) + 4 * h, i);
    SigmoidInPlace(Span(i, 2 * h));
    TanhInPlace(Span(g, h));
    SigmoidInPlace(Span(o, h));
    const float* cp = cv.row(r);
    float* cn = c_out.row(r);
    for (int j = 0; j < h; ++j) {
      cn[j] = f[j] * cp[j] + i[j] * g[j];
      tc[j] = cn[j];
    }
    TanhInPlace(Span(tc, h));
    float* hn = h_out.row(r);
    for (int j = 0; j < h; ++j) hn[j] = o[j] * tc[j];
  }
  const bool ng = node(gates).needs_grad || node(c).needs_grad;
  const Var act = Push(std::move(acts), false, {});
  const Var c_next = Push(std::move(c_out), ng, {});
  const Var h_next = Push(std::move(h_out), ng, {});
  if (!ng) return {h_next, c_next};

  // h' = o·tanh(c'): tanh(c')'s grad is 0 + dh·o, and it reaches c'
  // through tanh's derivative after every later consumer of c'. GradRef
  // sizes c''s grad when no consumer did, so the backward below runs.
  node(h_next).backward = [this, act, c_next, h_next, h]() {
    const Tensor& dh = node(h_next).grad;
    const Tensor& av = value(act);
    Tensor& dc = GradRef(c_next);
    for (int r = 0; r < dh.rows(); ++r) {
      const float* o = av.row(r) + 3 * h;
      const float* tc = o + h;
      const float* dhr = dh.row(r);
      float* dcr = dc.row(r);
      for (int j = 0; j < h; ++j) {
        dcr[j] += (0.0f + dhr[j] * o[j]) * (1.0f - tc[j] * tc[j]);
      }
    }
  };
  // c' = (f·c) + (i·g): each product's grad is 0 + dc'. Each gate's
  // pre-activation grad is 0 + its activation's grad times the
  // derivative, added into the gates' grad; o's comes from h' alone and
  // is skipped, as its nodes' backwards were, when h' has no grad.
  node(c_next).backward = [this, gates, c, act, c_next, h_next, h]() {
    const Tensor& dc = node(c_next).grad;
    const Tensor& dh = node(h_next).grad;
    const Tensor& av = value(act);
    const Tensor& cv = value(c);
    if (node(c).needs_grad) {
      Tensor& dcp = GradRef(c);
      for (int r = 0; r < dc.rows(); ++r) {
        const float* f = av.row(r) + h;
        const float* dcr = dc.row(r);
        float* out = dcp.row(r);
        for (int j = 0; j < h; ++j) out[j] += (0.0f + dcr[j]) * f[j];
      }
    }
    if (!node(gates).needs_grad) return;
    Tensor& dg = GradRef(gates);
    for (int r = 0; r < dc.rows(); ++r) {
      const float* i = av.row(r);
      const float* f = i + h;
      const float* g = f + h;
      const float* cp = cv.row(r);
      const float* dcr = dc.row(r);
      float* di = dg.row(r);
      float* df = di + h;
      float* dgg = df + h;
      for (int j = 0; j < h; ++j) {
        const float gi = 0.0f + (0.0f + dcr[j]) * g[j];
        di[j] += 0.0f + gi * i[j] * (1.0f - i[j]);
      }
      for (int j = 0; j < h; ++j) {
        const float gf = 0.0f + (0.0f + dcr[j]) * cp[j];
        df[j] += 0.0f + gf * f[j] * (1.0f - f[j]);
      }
      for (int j = 0; j < h; ++j) {
        const float gg = 0.0f + (0.0f + dcr[j]) * i[j];
        dgg[j] += 0.0f + gg * (1.0f - g[j] * g[j]);
      }
    }
    if (dh.empty()) return;
    for (int r = 0; r < dc.rows(); ++r) {
      const float* o = av.row(r) + 3 * h;
      const float* tc = o + h;
      const float* dhr = dh.row(r);
      float* dgo = dg.row(r) + 3 * h;
      for (int j = 0; j < h; ++j) {
        const float go = 0.0f + dhr[j] * tc[j];
        dgo[j] += 0.0f + go * o[j] * (1.0f - o[j]);
      }
    }
  };
  return {h_next, c_next};
}

void Tape::Backward(Var loss) {
  EAGLE_SPAN("tape.backward");
  Node& ln = node(loss);
  EAGLE_CHECK_MSG(ln.value.rows() == 1 && ln.value.cols() == 1,
                  "Backward expects a scalar loss, got "
                      << ln.value.ShapeString());
  EAGLE_CHECK_MSG(ln.needs_grad, "loss does not depend on any parameter");
  GradRef(loss).at(0, 0) = 1.0f;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    // Every contribution to this node's grad came from a newer node, so
    // its queued products fold now: before its own backward reads the
    // grad, or, for a Param leaf, before the flush below.
    FlushQueued(*it);
    if (it->backward && !it->grad.empty()) it->backward();
  }
  queued_.clear();
  // Flush leaf grads into their bound parameters.
  for (Node& n : nodes_) {
    if (n.bound != nullptr && !n.grad.empty()) {
      if (n.bound->grad.empty()) {
        n.bound->grad = Tensor(n.value.rows(), n.value.cols());
      }
      Axpy(1.0f, n.grad, n.bound->grad);
    }
  }
}

}  // namespace eagle::nn
