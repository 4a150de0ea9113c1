#pragma once
// Non-matmul ISS kernels: ReLU, requantized residual add, byte-LUT
// application (GELU), global average pooling, 2x2 max pooling, integer
// softmax and integer layernorm (I-BERT/Deeploy-style; see quant.hpp for
// the exact integer algorithms, mirrored 1:1 by these programs).
//
// These carry the non-GEMM cycles of the end-to-end networks (Table 2);
// all of them parallelize a 1-D range (words, elements, channels or rows)
// across the cluster cores.

#include "sim/cluster.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace decimate {

/// Args block layout shared by all vector kernels.
struct VecArgs {
  enum : int {
    kAPtr = 0,
    kBPtr,
    kOutPtr,
    kLutPtr,
    kLen,      // row length (softmax/layernorm) or stride-loop trip count
    kM1,
    kS1,
    kM2,
    kS2,
    kStride,   // channel stride (pools) / row stride (softmax rows)
    kTmpPtr,   // per-core scratch (softmax exp buffer)
    kAux,      // op-specific
    kWorkBase,
    kWorkWords = 2,  // {start, end} of the per-core 1-D range
  };
  static constexpr int size_words(int num_cores) {
    return kWorkBase + kWorkWords * num_cores;
  }
};

enum class VecKind : uint8_t {
  kRelu,       // SIMD max with zero, 4 lanes/iteration
  kAdd,        // out = clip8((a*m1 >> s1) + (b*m2 >> s2))
  kLut,        // out[i] = lut[(uint8)a[i]]
  kAvgPool,    // {H,W,C} -> {C}: requant(sum over H*W), strided loads
  kMaxPool2,   // {H,W,C} -> {H/2,W/2,C}, 2x2 stride 2
  kSoftmax,    // rows of length L, 3 passes + one divide per row
  kLayerNorm,  // rows of length L, integer mean/var/isqrt
};

const char* vec_kind_name(VecKind kind);

/// Build the program for a vector kernel (generic over geometry).
Program build_vec_kernel(VecKind kind);

struct VecRun {
  Tensor8 output;
  RunResult result;
};

/// Host-side launchers (single L1-resident execution, like TileRunner).
VecRun run_relu(Cluster& cluster, const Tensor8& x);
VecRun run_add(Cluster& cluster, const Tensor8& a, const Requant& ra,
               const Tensor8& b, const Requant& rb);
VecRun run_lut(Cluster& cluster, const Tensor8& x, std::span<const int8_t> lut);
VecRun run_avgpool(Cluster& cluster, const Tensor8& x, const Requant& rq);
VecRun run_maxpool2x2(Cluster& cluster, const Tensor8& x);
VecRun run_softmax(Cluster& cluster, const Tensor8& x,
                   std::span<const uint8_t> exp_lut);
VecRun run_layernorm(Cluster& cluster, const Tensor8& x, const Tensor8& gamma,
                     const Tensor8& beta);

/// Program cache for vector kernels.
const Program& vec_program_for(VecKind kind);

}  // namespace decimate
