#pragma once
// Internal header for the host kernel translation units ONLY
// (host_kernels.cpp and the per-ISA host_kernels_<isa>.cpp). Do not
// include from public headers.
//
// The scalar kernels live here as `static inline` functions on purpose:
// each TU compiles its own private copy under its own ISA flags. The
// copies taken by host_kernels.cpp (built with the base flags) back the
// scalar registry instances, so the guaranteed fallback never contains
// AVX instructions; the copies inside an -mavx2 TU serve as that
// instance's border/tail paths and only execute when CPUID already
// proved the ISA. An ordinary `inline` (COMDAT) definition would let the
// linker pick the AVX-compiled copy for everyone — the classic
// one-definition-rule ISA footgun this layout avoids.
//
// Everything here preserves the bit-exactness contract: int8 x int8
// products accumulate into int32, which wraps modulo 2^32 and is fully
// associative/commutative — any split, block, or vector order produces
// the same final accumulator, and Requant::apply is a pure function of
// it.

#include <algorithm>
#include <utility>

#include "nn/host_kernel_instances.hpp"
#include "nn/host_kernels.hpp"

namespace decimate {
namespace hostk {

/// Output positions [lo, hi) of one spatial axis whose full filter
/// footprint lands inside the input (no padding reach): the branch-free
/// interior of the conv loops. Empty when the filter overhangs everywhere.
static inline std::pair<int, int> interior_range(int in_dim, int f,
                                                 int stride, int pad,
                                                 int out_dim) {
  int lo = (pad + stride - 1) / stride;           // first o: o*s - pad >= 0
  int hi = (in_dim - f + pad) / stride + 1;       // last o + 1 inside
  if (in_dim - f + pad < 0) hi = 0;
  lo = std::clamp(lo, 0, out_dim);
  hi = std::clamp(hi, lo, out_dim);
  return {lo, hi};
}

// ---------------------------------------------------------------------------
// Single-pixel dense helper: bounds-checked taps, so it is correct for
// border AND interior pixels. The dense SIMD instances use it for edge
// pixels.
// ---------------------------------------------------------------------------

static inline void dense_conv_pixel(const int8_t* in0, const int8_t* w0,
                                    const Tensor32& bias, const ConvGeom& g,
                                    const Requant& rq, int y, int x, int k_s,
                                    int k_e, int8_t* orow) {
  const int fsz = g.fsz();
  const int64_t in_row = static_cast<int64_t>(g.ix) * g.c;
  const int iy0 = y * g.stride - g.pad;
  const int ix0 = x * g.stride - g.pad;
  for (int k = k_s; k < k_e; ++k) {
    int32_t acc = bias[k];
    const int8_t* wrow = w0 + static_cast<int64_t>(k) * fsz;
    for (int fy = 0; fy < g.fy; ++fy) {
      const int iy = iy0 + fy;
      if (iy < 0 || iy >= g.iy) continue;  // whole filter row padded out
      const int fx_s = std::max(0, -ix0);
      const int fx_e = std::min(g.fx, g.ix - ix0);
      if (fx_s >= fx_e) continue;
      const int8_t* in =
          in0 + iy * in_row + static_cast<int64_t>(ix0 + fx_s) * g.c;
      const int8_t* w = wrow + (fy * g.fx + fx_s) * g.c;
      const int n = (fx_e - fx_s) * g.c;
      for (int i = 0; i < n; ++i) {
        acc += static_cast<int32_t>(in[i]) * static_cast<int32_t>(w[i]);
      }
    }
    orow[k] = rq.apply(acc);
  }
}

// ---------------------------------------------------------------------------
// Blocked dense conv: interior pixels run a branch-free (fy, fx*c) loop
// with 4 output channels sharing every input load; border pixels clamp
// the fx range per filter row instead of testing every element.
// ---------------------------------------------------------------------------

static inline void dense_conv_into(const Tensor8& input,
                                   const Tensor8& weights,
                                   const Tensor32& bias, const ConvGeom& g,
                                   const Requant& rq, int oy_s, int oy_e,
                                   int k_s, int k_e, Tensor8& out) {
  const int ox = g.ox(), kk = g.k, fsz = g.fsz();
  const int fxc = g.fx * g.c;
  const int64_t in_row = static_cast<int64_t>(g.ix) * g.c;
  const auto [x_lo, x_hi] = interior_range(g.ix, g.fx, g.stride, g.pad, ox);
  const auto [y_lo, y_hi] =
      interior_range(g.iy, g.fy, g.stride, g.pad, g.oy());
  const int8_t* in0 = input.data();
  const int8_t* w0 = weights.data();

  const auto border_pixel = [&](int y, int x, int8_t* orow) {
    dense_conv_pixel(in0, w0, bias, g, rq, y, x, k_s, k_e, orow);
  };

  // single interior pixel: branch-free (fy, fx*c) walk, 4 output
  // channels sharing every input load
  const auto interior_pixel = [&](const int8_t* in_base, int8_t* orow) {
    int k = k_s;
    for (; k + 3 < k_e; k += 4) {
      int32_t a0 = bias[k], a1 = bias[k + 1], a2 = bias[k + 2],
              a3 = bias[k + 3];
      const int8_t* wr0 = w0 + static_cast<int64_t>(k) * fsz;
      const int8_t* wr1 = wr0 + fsz;
      const int8_t* wr2 = wr1 + fsz;
      const int8_t* wr3 = wr2 + fsz;
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        for (int i = 0; i < fxc; ++i) {
          const int32_t v = in[i];
          a0 += v * wr0[wi + i];
          a1 += v * wr1[wi + i];
          a2 += v * wr2[wi + i];
          a3 += v * wr3[wi + i];
        }
        wi += fxc;
      }
      orow[k] = rq.apply(a0);
      orow[k + 1] = rq.apply(a1);
      orow[k + 2] = rq.apply(a2);
      orow[k + 3] = rq.apply(a3);
    }
    for (; k < k_e; ++k) {
      int32_t acc = bias[k];
      const int8_t* wrow = w0 + static_cast<int64_t>(k) * fsz;
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        for (int i = 0; i < fxc; ++i) {
          acc += static_cast<int32_t>(in[i]) *
                 static_cast<int32_t>(wrow[wi + i]);
        }
        wi += fxc;
      }
      orow[k] = rq.apply(acc);
    }
  };

  // 4 adjacent interior pixels x 2 output channels: 8 accumulators share
  // every weight load, so the weight stream — the bandwidth bottleneck of
  // wide conv layers — is read once per 4 pixels instead of per pixel
  const int sc = g.stride * g.c;
  const auto interior_block4 = [&](const int8_t* in_base, int8_t* orow) {
    int k = k_s;
    for (; k + 1 < k_e; k += 2) {
      const int8_t* wr0 = w0 + static_cast<int64_t>(k) * fsz;
      const int8_t* wr1 = wr0 + fsz;
      int32_t acc[4][2];
      for (int p = 0; p < 4; ++p) {
        acc[p][0] = bias[k];
        acc[p][1] = bias[k + 1];
      }
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        for (int i = 0; i < fxc; ++i) {
          const int32_t b0 = wr0[wi + i], b1 = wr1[wi + i];
          const int32_t v0 = in[i], v1 = in[i + sc], v2 = in[i + 2 * sc],
                        v3 = in[i + 3 * sc];
          acc[0][0] += v0 * b0; acc[0][1] += v0 * b1;
          acc[1][0] += v1 * b0; acc[1][1] += v1 * b1;
          acc[2][0] += v2 * b0; acc[2][1] += v2 * b1;
          acc[3][0] += v3 * b0; acc[3][1] += v3 * b1;
        }
        wi += fxc;
      }
      for (int p = 0; p < 4; ++p) {
        orow[p * kk + k] = rq.apply(acc[p][0]);
        orow[p * kk + k + 1] = rq.apply(acc[p][1]);
      }
    }
    for (; k < k_e; ++k) {
      const int8_t* wrow = w0 + static_cast<int64_t>(k) * fsz;
      int32_t a0 = bias[k], a1 = bias[k], a2 = bias[k], a3 = bias[k];
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        for (int i = 0; i < fxc; ++i) {
          const int32_t b = wrow[wi + i];
          a0 += static_cast<int32_t>(in[i]) * b;
          a1 += static_cast<int32_t>(in[i + sc]) * b;
          a2 += static_cast<int32_t>(in[i + 2 * sc]) * b;
          a3 += static_cast<int32_t>(in[i + 3 * sc]) * b;
        }
        wi += fxc;
      }
      orow[k] = rq.apply(a0);
      orow[kk + k] = rq.apply(a1);
      orow[2 * kk + k] = rq.apply(a2);
      orow[3 * kk + k] = rq.apply(a3);
    }
  };

  for (int y = oy_s; y < oy_e; ++y) {
    int8_t* out_y = out.data() + static_cast<int64_t>(y) * ox * kk;
    const bool y_in = y >= y_lo && y < y_hi;
    const int iy0 = y * g.stride - g.pad;
    if (!y_in) {
      for (int x = 0; x < ox; ++x) {
        border_pixel(y, x, out_y + static_cast<int64_t>(x) * kk);
      }
      continue;
    }
    int x = 0;
    for (; x < x_lo; ++x) {
      border_pixel(y, x, out_y + static_cast<int64_t>(x) * kk);
    }
    const int8_t* row_base = in0 + iy0 * in_row;
    for (; x + 3 < x_hi; x += 4) {
      interior_block4(
          row_base + static_cast<int64_t>(x * g.stride - g.pad) * g.c,
          out_y + static_cast<int64_t>(x) * kk);
    }
    for (; x < x_hi; ++x) {
      interior_pixel(
          row_base + static_cast<int64_t>(x * g.stride - g.pad) * g.c,
          out_y + static_cast<int64_t>(x) * kk);
    }
    for (; x < ox; ++x) {
      border_pixel(y, x, out_y + static_cast<int64_t>(x) * kk);
    }
  }
}

// ---------------------------------------------------------------------------
// im2col pixel blocks. The sparse conv instances (and the dense
// pixel-major AVX2 one) compute `lanes` output pixels at once from a
// [fsz][lanes] buffer whose row tap * C + ch holds input channel ch under
// filter tap `tap` for every pixel of the block. That is the dense weight
// column order, so a gather column indexes the buffer directly and conv
// runs the same row loop as FC.
// ---------------------------------------------------------------------------

/// Fill buf[fsz][lanes] for the flattened output pixels [q0, q0 + n)
/// (q = y * OX + x; a block may span output rows). A tap that reaches
/// into the padding reads zero, at any stride. Lanes p >= n replicate
/// pixel q0 + n - 1, so a partial block computes on defined bytes.
static inline void im2col_block(const int8_t* in0, const ConvGeom& g, int q0,
                                int n, int lanes, int8_t* buf) {
  const int ox = g.ox();
  for (int p = 0; p < lanes; ++p) {
    const int q = q0 + std::min(p, n - 1);
    const int iy0 = (q / ox) * g.stride - g.pad;
    const int ix0 = (q % ox) * g.stride - g.pad;
    int8_t* dst = buf + p;
    for (int fy = 0; fy < g.fy; ++fy) {
      const int iy = iy0 + fy;
      for (int fx = 0; fx < g.fx; ++fx) {
        const int ix = ix0 + fx;
        if (iy < 0 || iy >= g.iy || ix < 0 || ix >= g.ix) {
          for (int ch = 0; ch < g.c; ++ch, dst += lanes) *dst = 0;
          continue;
        }
        const int8_t* src =
            in0 + (static_cast<int64_t>(iy) * g.ix + ix) * g.c;
        for (int ch = 0; ch < g.c; ++ch, dst += lanes) *dst = src[ch];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse N:M conv: im2col 4 output pixels at a time, then walk each
// output channel's non-zeros once for all 4 — cols/M MACs per output
// instead of cols, and the per-non-zero decode amortized 4x. Skipped
// weights are exact zeros, so the int32 accumulator matches the dense
// reference bit for bit.
// ---------------------------------------------------------------------------

static inline void sparse_conv_into(const HostKernelDispatch& d,
                                    const Tensor8& input,
                                    const Tensor32& bias, const ConvGeom& g,
                                    const Requant& rq, int oy_s, int oy_e,
                                    int k_s, int k_e, Tensor8& out) {
  constexpr int kLanes = 4;
  if (k_s >= k_e) return;
  const int kk = g.k, q_e = oy_e * g.ox();
  const int32_t* row_start = d.row_start.data();
  const uint16_t* col = d.col.data();
  const int8_t* val = d.val.data();
  AlignedVec<int8_t> buf(static_cast<size_t>(g.fsz()) * kLanes);
  for (int q = oy_s * g.ox(); q < q_e; q += kLanes) {
    const int n = std::min(kLanes, q_e - q);
    im2col_block(input.data(), g, q, n, kLanes, buf.data());
    int8_t* oblk = out.data() + static_cast<int64_t>(q) * kk;
    for (int k = k_s; k < k_e; ++k) {
      int32_t a[kLanes] = {bias[k], bias[k], bias[k], bias[k]};
      for (int e = row_start[k]; e < row_start[k + 1]; ++e) {
        const int32_t v = val[e];
        const int8_t* b = buf.data() + static_cast<size_t>(col[e]) * kLanes;
        a[0] += static_cast<int32_t>(b[0]) * v;
        a[1] += static_cast<int32_t>(b[1]) * v;
        a[2] += static_cast<int32_t>(b[2]) * v;
        a[3] += static_cast<int32_t>(b[3]) * v;
      }
      for (int p = 0; p < n; ++p) oblk[p * kk + k] = rq.apply(a[p]);
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked dense FC and sparse N:M FC (see the conv counterparts).
// ---------------------------------------------------------------------------

static inline void dense_fc_into(const Tensor8& input, const Tensor8& weights,
                                 const Tensor32& bias, const Requant& rq,
                                 int t_s, int t_e, int k_s, int k_e,
                                 Tensor8& out) {
  const int c = input.dim(1), kk = out.dim(1);
  const int8_t* w0 = weights.data();
  int ti = t_s;
  // 4 tokens x 4 output channels: 16 accumulators share every input and
  // weight load, cutting weight-stream traffic 4x — large dense FC
  // layers are weight-bandwidth-bound, so this is where the win is
  for (; ti + 3 < t_e; ti += 4) {
    const int8_t* in0 = input.data() + static_cast<int64_t>(ti) * c;
    const int8_t* in1 = in0 + c;
    const int8_t* in2 = in1 + c;
    const int8_t* in3 = in2 + c;
    int8_t* orow = out.data() + static_cast<int64_t>(ti) * kk;
    int ki = k_s;
    for (; ki + 3 < k_e; ki += 4) {
      const int8_t* wr0 = w0 + static_cast<int64_t>(ki) * c;
      const int8_t* wr1 = wr0 + c;
      const int8_t* wr2 = wr1 + c;
      const int8_t* wr3 = wr2 + c;
      int32_t acc[4][4];
      for (int p = 0; p < 4; ++p) {
        for (int q = 0; q < 4; ++q) acc[p][q] = bias[ki + q];
      }
      for (int i = 0; i < c; ++i) {
        const int32_t b0 = wr0[i], b1 = wr1[i], b2 = wr2[i], b3 = wr3[i];
        const int32_t v0 = in0[i], v1 = in1[i], v2 = in2[i], v3 = in3[i];
        acc[0][0] += v0 * b0; acc[0][1] += v0 * b1;
        acc[0][2] += v0 * b2; acc[0][3] += v0 * b3;
        acc[1][0] += v1 * b0; acc[1][1] += v1 * b1;
        acc[1][2] += v1 * b2; acc[1][3] += v1 * b3;
        acc[2][0] += v2 * b0; acc[2][1] += v2 * b1;
        acc[2][2] += v2 * b2; acc[2][3] += v2 * b3;
        acc[3][0] += v3 * b0; acc[3][1] += v3 * b1;
        acc[3][2] += v3 * b2; acc[3][3] += v3 * b3;
      }
      for (int p = 0; p < 4; ++p) {
        for (int q = 0; q < 4; ++q) {
          orow[p * kk + ki + q] = rq.apply(acc[p][q]);
        }
      }
    }
    for (; ki < k_e; ++ki) {
      const int8_t* w = w0 + static_cast<int64_t>(ki) * c;
      int32_t a0 = bias[ki], a1 = bias[ki], a2 = bias[ki], a3 = bias[ki];
      for (int i = 0; i < c; ++i) {
        const int32_t b = w[i];
        a0 += static_cast<int32_t>(in0[i]) * b;
        a1 += static_cast<int32_t>(in1[i]) * b;
        a2 += static_cast<int32_t>(in2[i]) * b;
        a3 += static_cast<int32_t>(in3[i]) * b;
      }
      orow[ki] = rq.apply(a0);
      orow[kk + ki] = rq.apply(a1);
      orow[2 * kk + ki] = rq.apply(a2);
      orow[3 * kk + ki] = rq.apply(a3);
    }
  }
  for (; ti < t_e; ++ti) {
    const int8_t* in = input.data() + static_cast<int64_t>(ti) * c;
    int8_t* orow = out.data() + static_cast<int64_t>(ti) * kk;
    int ki = k_s;
    for (; ki + 3 < k_e; ki += 4) {
      const int8_t* wr0 = w0 + static_cast<int64_t>(ki) * c;
      const int8_t* wr1 = wr0 + c;
      const int8_t* wr2 = wr1 + c;
      const int8_t* wr3 = wr2 + c;
      int32_t a0 = bias[ki], a1 = bias[ki + 1], a2 = bias[ki + 2],
              a3 = bias[ki + 3];
      for (int i = 0; i < c; ++i) {
        const int32_t v = in[i];
        a0 += v * wr0[i];
        a1 += v * wr1[i];
        a2 += v * wr2[i];
        a3 += v * wr3[i];
      }
      orow[ki] = rq.apply(a0);
      orow[ki + 1] = rq.apply(a1);
      orow[ki + 2] = rq.apply(a2);
      orow[ki + 3] = rq.apply(a3);
    }
    for (; ki < k_e; ++ki) {
      const int8_t* w = w0 + static_cast<int64_t>(ki) * c;
      int32_t acc = bias[ki];
      for (int i = 0; i < c; ++i) {
        acc += static_cast<int32_t>(in[i]) * static_cast<int32_t>(w[i]);
      }
      orow[ki] = rq.apply(acc);
    }
  }
}

static inline void sparse_fc_into(const HostKernelDispatch& d,
                                  const Tensor8& input, const Tensor32& bias,
                                  const Requant& rq, int t_s, int t_e,
                                  int k_s, int k_e, Tensor8& out) {
  const int c = input.dim(1), kk = out.dim(1);
  int ti = t_s;
  // 4 tokens share one walk of each row's (column, value) stream — the
  // per-non-zero decode cost amortizes 4x across the batch rows
  for (; ti + 3 < t_e; ti += 4) {
    const int8_t* in0 = input.data() + static_cast<int64_t>(ti) * c;
    const int8_t* in1 = in0 + c;
    const int8_t* in2 = in1 + c;
    const int8_t* in3 = in2 + c;
    int8_t* orow = out.data() + static_cast<int64_t>(ti) * kk;
    for (int ki = k_s; ki < k_e; ++ki) {
      const int32_t b = bias[ki];
      int32_t a0 = b, a1 = b, a2 = b, a3 = b;
      const int e_end = d.row_start[static_cast<size_t>(ki) + 1];
      for (int e = d.row_start[static_cast<size_t>(ki)]; e < e_end; ++e) {
        const int32_t v = d.val[static_cast<size_t>(e)];
        const int idx = d.col[static_cast<size_t>(e)];
        a0 += static_cast<int32_t>(in0[idx]) * v;
        a1 += static_cast<int32_t>(in1[idx]) * v;
        a2 += static_cast<int32_t>(in2[idx]) * v;
        a3 += static_cast<int32_t>(in3[idx]) * v;
      }
      orow[ki] = rq.apply(a0);
      orow[kk + ki] = rq.apply(a1);
      orow[2 * kk + ki] = rq.apply(a2);
      orow[3 * kk + ki] = rq.apply(a3);
    }
  }
  for (; ti < t_e; ++ti) {
    const int8_t* in = input.data() + static_cast<int64_t>(ti) * c;
    int8_t* orow = out.data() + static_cast<int64_t>(ti) * kk;
    for (int ki = k_s; ki < k_e; ++ki) {
      int32_t acc = bias[ki];
      const int e_end = d.row_start[static_cast<size_t>(ki) + 1];
      for (int e = d.row_start[static_cast<size_t>(ki)]; e < e_end; ++e) {
        acc += static_cast<int32_t>(in[d.col[static_cast<size_t>(e)]]) *
               static_cast<int32_t>(d.val[static_cast<size_t>(e)]);
      }
      orow[ki] = rq.apply(acc);
    }
  }
}

// ---------------------------------------------------------------------------
// Registry plumbing. The table itself lives in host_kernels.cpp; the
// SIMD instance entry points are extern functions defined in the per-ISA
// TUs, present only when CMake found the compiler flags.
// ---------------------------------------------------------------------------

using ConvRunFn = void (*)(const HostKernelDispatch& d, const Tensor8& input,
                           const Tensor8& weights, const Tensor32& bias,
                           const ConvGeom& g, const Requant& rq, int oy_s,
                           int oy_e, int k_s, int k_e, Tensor8& out);
using FcRunFn = void (*)(const HostKernelDispatch& d, const Tensor8& input,
                         const Tensor8& weights, const Tensor32& bias,
                         const Requant& rq, int t_s, int t_e, int k_s,
                         int k_e, Tensor8& out);

/// One registry entry. `fits_*` are pure performance heuristics — every
/// instance must be bit-exact on every geometry of its family, so forcing
/// a mismatched instance is legal (and fuzz-tested), just slower.
struct Instance {
  HostInstanceInfo info;
  bool (*fits_conv)(const ConvGeom& g, int m);          // conv families
  bool (*fits_fc)(int tokens, int c, int k, int m);     // fc families
  ConvRunFn conv_run;
  FcRunFn fc_run;
};

#if defined(DECIMATE_HAVE_AVX2_TU)
void conv_dense_avx2(const HostKernelDispatch& d, const Tensor8& input,
                     const Tensor8& weights, const Tensor32& bias,
                     const ConvGeom& g, const Requant& rq, int oy_s, int oy_e,
                     int k_s, int k_e, Tensor8& out);
void conv_dense_im2col_avx2(const HostKernelDispatch& d, const Tensor8& input,
                            const Tensor8& weights, const Tensor32& bias,
                            const ConvGeom& g, const Requant& rq, int oy_s,
                            int oy_e, int k_s, int k_e, Tensor8& out);
void conv_nm_avx2(const HostKernelDispatch& d, const Tensor8& input,
                  const Tensor8& weights, const Tensor32& bias,
                  const ConvGeom& g, const Requant& rq, int oy_s, int oy_e,
                  int k_s, int k_e, Tensor8& out);
void fc_dense_avx2(const HostKernelDispatch& d, const Tensor8& input,
                   const Tensor8& weights, const Tensor32& bias,
                   const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                   Tensor8& out);
void fc_nm_avx2(const HostKernelDispatch& d, const Tensor8& input,
                const Tensor8& weights, const Tensor32& bias,
                const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                Tensor8& out);
#endif

#if defined(DECIMATE_HAVE_AVX512_TU)
void conv_dense_vnni(const HostKernelDispatch& d, const Tensor8& input,
                     const Tensor8& weights, const Tensor32& bias,
                     const ConvGeom& g, const Requant& rq, int oy_s, int oy_e,
                     int k_s, int k_e, Tensor8& out);
void conv_nm_vnni(const HostKernelDispatch& d, const Tensor8& input,
                  const Tensor8& weights, const Tensor32& bias,
                  const ConvGeom& g, const Requant& rq, int oy_s, int oy_e,
                  int k_s, int k_e, Tensor8& out);
void fc_dense_vnni(const HostKernelDispatch& d, const Tensor8& input,
                   const Tensor8& weights, const Tensor32& bias,
                   const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                   Tensor8& out);
void fc_nm_vnni(const HostKernelDispatch& d, const Tensor8& input,
                const Tensor8& weights, const Tensor32& bias,
                const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                Tensor8& out);
#endif

}  // namespace hostk
}  // namespace decimate
