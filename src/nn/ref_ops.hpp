#pragma once
// Reference implementations of every layer type, written to be bit-exact
// with the ISS kernels (same integer arithmetic, same requant sequence).
// Tests assert kernel output == reference output across parameter sweeps;
// the schedule executor uses the reference for numerics while taking
// cycles from the simulated kernels (see DESIGN.md, hybrid execution).

#include <span>

#include "nn/layer_geometry.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace decimate {

/// Convolution, HWC activations {IY, IX, C}, weights {K, FY*FX*C} with rows
/// in (fy, fx, c) order, int32 bias {K}; zero padding. Output {OY, OX, K}.
Tensor8 conv2d_s8(const Tensor8& input, const Tensor8& weights,
                  const Tensor32& bias, const ConvGeom& g, const Requant& rq);

/// Ranged convolution: computes output rows [oy_s, oy_e) x channels
/// [k_s, k_e) into a preallocated {OY, OX, K} tensor, element-for-element
/// identical to conv2d_s8 — disjoint ranges may run on concurrent shards
/// and stitch bit-exactly. conv2d_s8 is the full-range wrapper.
void conv2d_s8_into(const Tensor8& input, const Tensor8& weights,
                    const Tensor32& bias, const ConvGeom& g,
                    const Requant& rq, int oy_s, int oy_e, int k_s, int k_e,
                    Tensor8& out);

/// Fully-connected / matmul: input {T, C}, weights {K, C}, bias {K};
/// output {T, K}.
Tensor8 fc_s8(const Tensor8& input, const Tensor8& weights,
              const Tensor32& bias, const Requant& rq);

/// Ranged FC: computes tokens [t_s, t_e) x output channels [k_s, k_e)
/// into a preallocated {T, K} tensor (see conv2d_s8_into).
void fc_s8_into(const Tensor8& input, const Tensor8& weights,
                const Tensor32& bias, const Requant& rq, int t_s, int t_e,
                int k_s, int k_e, Tensor8& out);

/// Elementwise ReLU.
Tensor8 relu_s8(const Tensor8& x);

/// Requantized residual add: clip8(((a*ma)>>sa) + ((b*mb)>>sb)).
Tensor8 add_s8(const Tensor8& a, const Requant& ra, const Tensor8& b,
               const Requant& rb);

/// 2x2 stride-2 max pooling on {H, W, C}.
Tensor8 maxpool2x2_s8(const Tensor8& x);

/// Global average pooling on {H, W, C} -> {C}: requant(sum).
Tensor8 global_avgpool_s8(const Tensor8& x, const Requant& rq);

/// Elementwise LUT application (GELU or any unary int8 op).
Tensor8 lut_s8(const Tensor8& x, std::span<const int8_t> lut);

/// Row-wise integer softmax on {T, L}.
Tensor8 softmax_s8(const Tensor8& x, std::span<const uint8_t> exp_lut);

/// Row-wise integer layernorm on {T, L} with per-feature gamma/beta.
Tensor8 layernorm_s8(const Tensor8& x, const Tensor8& gamma,
                     const Tensor8& beta);

}  // namespace decimate
