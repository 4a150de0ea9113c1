// AVX2 kernel instances: 16-lane int8 dot-product microkernels.
//
// Bit-exactness strategy — this TU never uses a saturating intermediate:
//  - dense dot products sign-extend both operands to int16 and use
//    pmaddwd (madd_epi16): each lane is a sum of two int16 x int16
//    products, which fits int32 exactly; lane accumulation wraps modulo
//    2^32 exactly like the scalar reference accumulator. (pmaddubsw
//    would be one instruction shorter but saturates its int16 sum — the
//    classic trap this file deliberately avoids.)
//  - sparse kernels (and the narrow-filter dense conv) are pixel-major:
//    16 output pixels are im2col'd (16 FC tokens transposed) into a
//    [cols][16] block, so each weight is broadcast-multiplied across 16
//    *contiguous* bytes, and the gather loop is sequential 16-byte loads.
//    int16 product magnitude is bounded by 128*127, so mullo_epi16 is
//    exact; widening to int32 before accumulation keeps the wrap-exact
//    contract.
// Horizontal sums and lane splits only reorder int32 additions, which
// are associative and commutative modulo 2^32 — any order is the
// reference order. Dense-conv borders and the FC token tail come from the
// private copies of the scalar kernels in this TU (see
// host_kernels_impl.hpp).
//
// This file is compiled with -mavx2 (CMake: DECIMATE_HAVE_AVX2_TU) and
// its entry points are only selected/forced after CPUID reports AVX2.

#include <immintrin.h>

#include "nn/host_kernels_impl.hpp"

namespace decimate {
namespace hostk {

namespace {

/// Widen 16 int8 lanes to int16.
inline __m256i widen16(const int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// acc += a[0..15] dot b[0..15] (pairwise int16 madd, exact).
inline __m256i dot16(__m256i acc, __m256i av, const int8_t* b) {
  return _mm256_add_epi32(acc, _mm256_madd_epi16(av, widen16(b)));
}

/// Sum of the 8 int32 lanes (wrap-exact).
inline int32_t hsum8(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// 16 int32 accumulators (two registers) for 16 adjacent outputs, plus
/// the broadcast multiply-accumulate of one non-zero weight against 16
/// contiguous int8 inputs — the sparse pixel-major inner step.
struct Acc16 {
  __m256i lo, hi;

  explicit Acc16(int32_t init)
      : lo(_mm256_set1_epi32(init)), hi(_mm256_set1_epi32(init)) {}

  inline void mac(const int8_t* p, int8_t v) {
    const __m256i prod =
        _mm256_mullo_epi16(widen16(p), _mm256_set1_epi16(v));  // exact int16
    lo = _mm256_add_epi32(lo,
                          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
    hi = _mm256_add_epi32(
        hi, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
  }

  /// Requantize the first `n` lanes into strided int8 outputs
  /// out[i*stride] (n < 16 = partial remainder block: the junk in the
  /// unstored lanes never saturated anything, so dropping it is exact).
  inline void store(const Requant& rq, int8_t* out, int64_t stride,
                    int n = 16) const {
    alignas(32) int32_t tmp[16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), hi);
    for (int i = 0; i < n; ++i) out[i * stride] = rq.apply(tmp[i]);
  }
};

/// In-place 16x16 byte transpose: byte j of r[i] moves to byte i of r[j].
/// Each round rotates every element's 8-bit (register, byte) address left
/// by one bit; four rounds swap the register and byte halves.
inline void transpose16x16(__m128i r[16]) {
  for (int round = 0; round < 4; ++round) {
    __m128i t[16];
    for (int j = 0; j < 8; ++j) {
      t[2 * j] = _mm_unpacklo_epi8(r[j], r[j + 8]);
      t[2 * j + 1] = _mm_unpackhi_epi8(r[j], r[j + 8]);
    }
    for (int j = 0; j < 16; ++j) r[j] = t[j];
  }
}

/// im2col_block at 16 lanes. With C % 16 == 0 every (tap, 16-channel
/// group) is one transpose of 16 pixel rows, a padded tap reading the
/// zero row `zeros` (>= C bytes); other channel counts take the scalar
/// fill.
inline void im2col16(const int8_t* in0, const ConvGeom& g, int q0, int n,
                     const int8_t* zeros, int8_t* buf) {
  if (g.c % 16 != 0) {
    im2col_block(in0, g, q0, n, 16, buf);
    return;
  }
  const int ox = g.ox();
  int iy0[16], ix0[16];
  for (int p = 0; p < 16; ++p) {
    const int q = q0 + std::min(p, n - 1);
    iy0[p] = (q / ox) * g.stride - g.pad;
    ix0[p] = (q % ox) * g.stride - g.pad;
  }
  for (int fy = 0; fy < g.fy; ++fy) {
    for (int fx = 0; fx < g.fx; ++fx) {
      const int8_t* src[16];
      for (int p = 0; p < 16; ++p) {
        const int iy = iy0[p] + fy, ix = ix0[p] + fx;
        src[p] = (iy < 0 || iy >= g.iy || ix < 0 || ix >= g.ix)
                     ? zeros
                     : in0 + (static_cast<int64_t>(iy) * g.ix + ix) * g.c;
      }
      int8_t* dst = buf + static_cast<int64_t>(fy * g.fx + fx) * g.c * 16;
      for (int ch = 0; ch < g.c; ch += 16) {
        __m128i r[16];
        for (int p = 0; p < 16; ++p) {
          r[p] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src[p] + ch));
        }
        transpose16x16(r);
        for (int i = 0; i < 16; ++i) {
          _mm_store_si128(reinterpret_cast<__m128i*>(dst + (ch + i) * 16),
                          r[i]);
        }
      }
    }
  }
}

/// Walk the flattened output pixels of rows [oy_s, oy_e) in blocks of
/// 16: im2col each block, then hand it to `rows(buf, n, out_block)` with
/// n valid lanes, out_block pointing at the block's first output pixel.
template <typename RowsFn>
void conv_blocks16(const Tensor8& input, const ConvGeom& g, int oy_s,
                   int oy_e, Tensor8& out, RowsFn&& rows) {
  const int q_e = oy_e * g.ox();
  const size_t block = static_cast<size_t>(g.fsz()) * 16;
  // the block buffer, then a zero row of C bytes for padded taps
  AlignedVec<int8_t> buf(block + static_cast<size_t>(g.c));
  for (int q = oy_s * g.ox(); q < q_e; q += 16) {
    const int n = std::min(16, q_e - q);
    im2col16(input.data(), g, q, n, buf.data() + block, buf.data());
    rows(buf.data(), n, out.data() + static_cast<int64_t>(q) * g.k);
  }
}

/// The N:M row loop both sparse families share: for each output channel
/// k in [k_s, k_e), one broadcast multiply per non-zero of row k against
/// the column block buf[col][16]; the first n lanes are requantized into
/// out[p * kk + k].
inline void nm_rows16(const HostKernelDispatch& d, const int8_t* buf,
                      const Tensor32& bias, const Requant& rq, int k_s,
                      int k_e, int n, int8_t* out, int64_t kk) {
  const int32_t* row_start = d.row_start.data();
  const uint16_t* col = d.col.data();
  const int8_t* val = d.val.data();
  for (int k = k_s; k < k_e; ++k) {
    Acc16 acc(bias[k]);
    for (int e = row_start[k]; e < row_start[k + 1]; ++e) {
      acc.mac(buf + static_cast<size_t>(col[e]) * 16, val[e]);
    }
    acc.store(rq, out + k, kk, n);
  }
}

}  // namespace

void conv_dense_avx2(const HostKernelDispatch&, const Tensor8& input,
                     const Tensor8& weights, const Tensor32& bias,
                     const ConvGeom& g, const Requant& rq, int oy_s, int oy_e,
                     int k_s, int k_e, Tensor8& out) {
  const int ox = g.ox(), kk = g.k, fsz = g.fsz();
  const int fxc = g.fx * g.c;
  const int vec = fxc & ~15;  // 16-lane-covered prefix of each filter row
  const int64_t in_row = static_cast<int64_t>(g.ix) * g.c;
  const auto [x_lo, x_hi] = interior_range(g.ix, g.fx, g.stride, g.pad, ox);
  const auto [y_lo, y_hi] =
      interior_range(g.iy, g.fy, g.stride, g.pad, g.oy());
  const int8_t* in0 = input.data();
  const int8_t* w0 = weights.data();

  // interior pixel: per filter row, one widened activation load feeds 4
  // output channels' madd chains; the fxc % 16 tail stays scalar
  const auto interior_pixel = [&](const int8_t* in_base, int8_t* orow) {
    int k = k_s;
    for (; k + 3 < k_e; k += 4) {
      const int8_t* wr0 = w0 + static_cast<int64_t>(k) * fsz;
      const int8_t* wr1 = wr0 + fsz;
      const int8_t* wr2 = wr1 + fsz;
      const int8_t* wr3 = wr2 + fsz;
      __m256i v0 = _mm256_setzero_si256(), v1 = v0, v2 = v0, v3 = v0;
      int32_t a0 = bias[k], a1 = bias[k + 1], a2 = bias[k + 2],
              a3 = bias[k + 3];
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        int i = 0;
        for (; i < vec; i += 16) {
          const __m256i av = widen16(in + i);
          v0 = dot16(v0, av, wr0 + wi + i);
          v1 = dot16(v1, av, wr1 + wi + i);
          v2 = dot16(v2, av, wr2 + wi + i);
          v3 = dot16(v3, av, wr3 + wi + i);
        }
        for (; i < fxc; ++i) {
          const int32_t v = in[i];
          a0 += v * wr0[wi + i];
          a1 += v * wr1[wi + i];
          a2 += v * wr2[wi + i];
          a3 += v * wr3[wi + i];
        }
        wi += fxc;
      }
      orow[k] = rq.apply(a0 + hsum8(v0));
      orow[k + 1] = rq.apply(a1 + hsum8(v1));
      orow[k + 2] = rq.apply(a2 + hsum8(v2));
      orow[k + 3] = rq.apply(a3 + hsum8(v3));
    }
    for (; k < k_e; ++k) {
      const int8_t* wr = w0 + static_cast<int64_t>(k) * fsz;
      __m256i v = _mm256_setzero_si256();
      int32_t a = bias[k];
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        int i = 0;
        for (; i < vec; i += 16) v = dot16(v, widen16(in + i), wr + wi + i);
        for (; i < fxc; ++i) {
          a += static_cast<int32_t>(in[i]) * static_cast<int32_t>(wr[wi + i]);
        }
        wi += fxc;
      }
      orow[k] = rq.apply(a + hsum8(v));
    }
  };

  for (int y = oy_s; y < oy_e; ++y) {
    int8_t* out_y = out.data() + static_cast<int64_t>(y) * ox * kk;
    const bool y_in = y >= y_lo && y < y_hi;
    if (!y_in) {
      for (int x = 0; x < ox; ++x) {
        dense_conv_pixel(in0, w0, bias, g, rq, y, x, k_s, k_e,
                         out_y + static_cast<int64_t>(x) * kk);
      }
      continue;
    }
    const int8_t* row_base = in0 + (y * g.stride - g.pad) * in_row;
    int x = 0;
    for (; x < x_lo; ++x) {
      dense_conv_pixel(in0, w0, bias, g, rq, y, x, k_s, k_e,
                       out_y + static_cast<int64_t>(x) * kk);
    }
    for (; x < x_hi; ++x) {
      interior_pixel(row_base + static_cast<int64_t>(x * g.stride - g.pad) * g.c,
                     out_y + static_cast<int64_t>(x) * kk);
    }
    for (; x < ox; ++x) {
      dense_conv_pixel(in0, w0, bias, g, rq, y, x, k_s, k_e,
                       out_y + static_cast<int64_t>(x) * kk);
    }
  }
}

void conv_dense_im2col_avx2(const HostKernelDispatch&, const Tensor8& input,
                            const Tensor8& weights, const Tensor32& bias,
                            const ConvGeom& g, const Requant& rq, int oy_s,
                            int oy_e, int k_s, int k_e, Tensor8& out) {
  // pixel-major dense: the filter row is too narrow for a 16-wide dot
  // product (the 3x3 stem: FX * C = 12), so broadcast each weight across
  // 16 im2col'd pixels instead
  if (k_s >= k_e) return;
  const int fsz = g.fsz();
  const int8_t* w0 = weights.data();
  conv_blocks16(input, g, oy_s, oy_e, out,
                [&](const int8_t* buf, int n, int8_t* oblk) {
                  for (int k = k_s; k < k_e; ++k) {
                    const int8_t* wrow = w0 + static_cast<int64_t>(k) * fsz;
                    Acc16 acc(bias[k]);
                    for (int j = 0; j < fsz; ++j) {
                      acc.mac(buf + static_cast<size_t>(j) * 16, wrow[j]);
                    }
                    acc.store(rq, oblk + k, g.k, n);
                  }
                });
}

void conv_nm_avx2(const HostKernelDispatch& d, const Tensor8& input,
                  const Tensor8&, const Tensor32& bias, const ConvGeom& g,
                  const Requant& rq, int oy_s, int oy_e, int k_s, int k_e,
                  Tensor8& out) {
  // the gather plan replaces the dense weights; every geometry runs the
  // same im2col block + row loop (padding is zeros in the block)
  if (k_s >= k_e) return;
  conv_blocks16(input, g, oy_s, oy_e, out,
                [&](const int8_t* buf, int n, int8_t* oblk) {
                  nm_rows16(d, buf, bias, rq, k_s, k_e, n, oblk, g.k);
                });
}

void fc_dense_avx2(const HostKernelDispatch&, const Tensor8& input,
                   const Tensor8& weights, const Tensor32& bias,
                   const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                   Tensor8& out) {
  const int c = input.dim(1), kk = out.dim(1);
  const int vec = c & ~15;
  const int8_t* w0 = weights.data();

  // 2 tokens x 4 output channels: each widened weight load feeds two
  // madd chains, halving the weight-stream traffic large FC layers are
  // bound by
  int ti = t_s;
  for (; ti + 1 < t_e; ti += 2) {
    const int8_t* in0 = input.data() + static_cast<int64_t>(ti) * c;
    const int8_t* in1 = in0 + c;
    int8_t* orow = out.data() + static_cast<int64_t>(ti) * kk;
    int ki = k_s;
    for (; ki + 3 < k_e; ki += 4) {
      const int8_t* wr[4] = {w0 + static_cast<int64_t>(ki) * c,
                             w0 + static_cast<int64_t>(ki + 1) * c,
                             w0 + static_cast<int64_t>(ki + 2) * c,
                             w0 + static_cast<int64_t>(ki + 3) * c};
      __m256i va[2][4];
      for (auto& row : va) {
        for (auto& v : row) v = _mm256_setzero_si256();
      }
      int i = 0;
      for (; i < vec; i += 16) {
        const __m256i a0 = widen16(in0 + i);
        const __m256i a1 = widen16(in1 + i);
        for (int q = 0; q < 4; ++q) {
          const __m256i wv = widen16(wr[q] + i);
          va[0][q] = _mm256_add_epi32(va[0][q], _mm256_madd_epi16(a0, wv));
          va[1][q] = _mm256_add_epi32(va[1][q], _mm256_madd_epi16(a1, wv));
        }
      }
      for (int q = 0; q < 4; ++q) {
        int32_t s0 = bias[ki + q] + hsum8(va[0][q]);
        int32_t s1 = bias[ki + q] + hsum8(va[1][q]);
        for (int j = i; j < c; ++j) {
          const int32_t b = wr[q][j];
          s0 += static_cast<int32_t>(in0[j]) * b;
          s1 += static_cast<int32_t>(in1[j]) * b;
        }
        orow[ki + q] = rq.apply(s0);
        orow[kk + ki + q] = rq.apply(s1);
      }
    }
    for (; ki < k_e; ++ki) {
      const int8_t* w = w0 + static_cast<int64_t>(ki) * c;
      __m256i v0 = _mm256_setzero_si256(), v1 = v0;
      int i = 0;
      for (; i < vec; i += 16) {
        const __m256i wv = widen16(w + i);
        v0 = _mm256_add_epi32(v0, _mm256_madd_epi16(widen16(in0 + i), wv));
        v1 = _mm256_add_epi32(v1, _mm256_madd_epi16(widen16(in1 + i), wv));
      }
      int32_t s0 = bias[ki] + hsum8(v0);
      int32_t s1 = bias[ki] + hsum8(v1);
      for (; i < c; ++i) {
        const int32_t b = w[i];
        s0 += static_cast<int32_t>(in0[i]) * b;
        s1 += static_cast<int32_t>(in1[i]) * b;
      }
      orow[ki] = rq.apply(s0);
      orow[kk + ki] = rq.apply(s1);
    }
  }
  for (; ti < t_e; ++ti) {
    const int8_t* in = input.data() + static_cast<int64_t>(ti) * c;
    int8_t* orow = out.data() + static_cast<int64_t>(ti) * kk;
    for (int ki = k_s; ki < k_e; ++ki) {
      const int8_t* w = w0 + static_cast<int64_t>(ki) * c;
      __m256i v = _mm256_setzero_si256();
      int i = 0;
      for (; i < vec; i += 16) v = dot16(v, widen16(in + i), w + i);
      int32_t s = bias[ki] + hsum8(v);
      for (; i < c; ++i) {
        s += static_cast<int32_t>(in[i]) * static_cast<int32_t>(w[i]);
      }
      orow[ki] = rq.apply(s);
    }
  }
}

void fc_nm_avx2(const HostKernelDispatch& d, const Tensor8& input,
                const Tensor8& weights, const Tensor32& bias,
                const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                Tensor8& out) {
  const int c = input.dim(1), kk = out.dim(1);
  (void)weights;  // sparse: the gather plan replaces the dense weights

  // Token-major: transpose 16 tokens x c into [c][16] so each non-zero
  // (column, value) is one contiguous 16-byte load broadcast across 16
  // tokens — the FC analogue of the conv pixel-major trick.
  AlignedVec<int8_t> buf(static_cast<size_t>(c) * 16);
  int tb = t_s;
  while (tb < t_e) {
    const int lanes = std::min(16, t_e - tb);
    if (lanes < 4) break;  // tiny tail: scalar wins
    for (int p = 0; p < lanes; ++p) {
      const int8_t* in = input.data() + static_cast<int64_t>(tb + p) * c;
      for (int i = 0; i < c; ++i) buf[static_cast<size_t>(i) * 16 + p] = in[i];
    }
    // partial block: lanes past the batch end hold the previous
    // block's stale tokens — computed but never stored (exact)
    nm_rows16(d, buf.data(), bias, rq, k_s, k_e, lanes,
              out.data() + static_cast<int64_t>(tb) * kk, kk);
    tb += lanes;
  }
  // remaining tokens (< 4): this TU's scalar gather kernel
  if (tb < t_e) sparse_fc_into(d, input, bias, rq, tb, t_e, k_s, k_e, out);
}

}  // namespace hostk
}  // namespace decimate
