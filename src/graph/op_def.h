// Operation definitions for computational graphs.
//
// An OpDef mirrors what a TensorFlow GraphDef node exposes to a placement
// agent: a type, an output shape, resource demands (FLOPs, parameter and
// activation bytes), and device-compatibility constraints (e.g. embedding
// lookups pinned to CPU, as in the paper's Single-GPU baseline §IV-B).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/tensor_shape.h"

namespace eagle::graph {

// Operation kinds observed across the three benchmark graphs. The set is
// deliberately the union of what Inception-V3 (conv stack), GNMT
// (recurrent seq2seq) and BERT (transformer) emit, plus training-graph
// node kinds (gradients, optimizer updates).
enum class OpType : std::uint8_t {
  kConst = 0,
  kVariable,
  kPlaceholder,
  kIdentity,
  kConv2D,
  kDepthwiseConv,
  kMatMul,
  kBatchMatMul,
  kBiasAdd,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kRelu,
  kGelu,
  kTanh,
  kSigmoid,
  kSoftmax,
  kLogSoftmax,
  kMaxPool,
  kAvgPool,
  kBatchNorm,
  kLayerNorm,
  kConcat,
  kSplit,
  kReshape,
  kTranspose,
  kEmbeddingLookup,
  kGather,
  kDropout,
  kReduceSum,
  kReduceMean,
  kCrossEntropy,
  kApplyAdam,
  kAllReduceLocal,  // intra-machine gradient aggregation
  kNumOpTypes  // sentinel — keep last
};

inline constexpr int kNumOpTypes = static_cast<int>(OpType::kNumOpTypes);

const char* OpTypeName(OpType type);

// Parses the name produced by OpTypeName; returns kNumOpTypes on failure.
OpType OpTypeFromName(std::string_view name);

using OpId = std::int32_t;
inline constexpr OpId kInvalidOp = -1;

struct OpDef {
  std::string name;                 // unique within a graph
  OpType type = OpType::kIdentity;
  TensorShape output_shape;         // shape of the (single) output tensor
  double flops = 0.0;               // forward cost of the op
  std::int64_t param_bytes = 0;     // resident parameter memory
  std::int64_t temp_bytes = 0;      // scratch memory while executing
  bool cpu_only = false;            // incompatible with GPU (e.g. lookups)
  bool is_gradient = false;         // belongs to the backward pass
  std::string layer;                // human-readable layer tag, e.g.
                                    // "encoder/lstm2" — drives expert
                                    // placements and debugging
  std::int32_t colocation_group = -1;  // ops sharing a group must share a
                                       // device (TF colocation constraint)

  std::int64_t output_bytes() const { return output_shape.Bytes(); }
};

}  // namespace eagle::graph
