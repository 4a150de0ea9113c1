// AVX-512 VNNI kernel instances: vpdpbusd 64-lane u8 x s8 dot products.
//
// vpdpbusd multiplies unsigned bytes by signed bytes and accumulates the
// int32 lane sums WITHOUT saturation (unlike vpdpbusds), so it preserves
// the wrap-mod-2^32 accumulation contract. Our activations are signed,
// so they are biased into u8 with a XOR 0x80 (a + 128 as u8) and
// corrected exactly:
//
//   sum((a+128) * w) = sum(a*w) + 128 * sum(w)   (mod 2^32)
//
// The dense instances accumulate the correction term sum(w) in the same
// loop with a second vpdpbusd against an all-ones u8 vector; the sparse
// instances start each row's accumulator at bias - 128 * sum(w), from the
// row sum the gather plan stores. Every combine is done in uint32
// arithmetic, so the final accumulator equals the scalar reference bit
// for bit. Horizontal reduction (_mm512_reduce_add_epi32) only reorders
// int32 additions — order-free modulo 2^32.
//
// The sparse instances are pixel-major like their AVX2 counterparts: 16
// output pixels (or tokens) fill a [cols][16] block, biased to u8 as it
// is filled, and each vpdpbusd takes four non-zeros of a row at once —
// their four block rows transposed so that every int32 lane holds its
// pixel's four activations, against the four weights broadcast as one
// 32-bit word: 64 MACs per instruction.
//
// Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vnni (CMake:
// DECIMATE_HAVE_AVX512_TU); selected/forced only after CPUID reports all
// four features.

#include <immintrin.h>

#include <cstring>

#include "nn/host_kernels_simd.hpp"

namespace decimate {
namespace hostk {

namespace {

/// One 64-byte dot-product step: data term into `acc`, weight-sum
/// correction term into `corr`.
inline void dot64(__m512i& acc, __m512i& corr, const int8_t* a,
                  const int8_t* w) {
  const __m512i av = _mm512_xor_si512(
      _mm512_loadu_si512(a), _mm512_set1_epi8(static_cast<char>(0x80)));
  const __m512i wv = _mm512_loadu_si512(w);
  acc = _mm512_dpbusd_epi32(acc, av, wv);
  corr = _mm512_dpbusd_epi32(corr, _mm512_set1_epi8(1), wv);
}

/// Exact combine: sum(a*w) = biased accumulator - 128 * sum(w), mod 2^32.
inline int32_t combine(__m512i acc, __m512i corr) {
  const auto a = static_cast<uint32_t>(_mm512_reduce_add_epi32(acc));
  const auto s = static_cast<uint32_t>(_mm512_reduce_add_epi32(corr));
  return static_cast<int32_t>(a - 128u * s);
}

/// XOR mask that biases an int8 block into vpdpbusd's u8 operand.
constexpr uint8_t kU8Bias = 0x80;

/// The block rows buf[c[0..3]] (16 lanes each) as vpdpbusd's u8 operand:
/// one row per 128-bit lane, then a 4x4 dword transpose (vpermd) and a
/// 4x4 byte transpose inside each 128-bit lane (vpshufb), so that dword p
/// holds lane p's four bytes in non-zero order. Both transposes take the
/// index sequence 0, 4, 8, 12, 1, 5, ..., held in `perm` and `shuf`.
inline __m512i gather4(const int8_t* buf, const uint16_t* c, __m512i perm,
                       __m512i shuf) {
  const auto row = [buf](uint16_t j) {
    return _mm_load_si128(
        reinterpret_cast<const __m128i*>(buf + static_cast<size_t>(j) * 16));
  };
  __m512i x = _mm512_castsi128_si512(row(c[0]));
  x = _mm512_inserti32x4(x, row(c[1]), 1);
  x = _mm512_inserti32x4(x, row(c[2]), 2);
  x = _mm512_inserti32x4(x, row(c[3]), 3);
  return _mm512_shuffle_epi8(_mm512_permutexvar_epi32(perm, x), shuf);
}

/// The four int8 weights v[0..3], broadcast as one 32-bit word.
inline __m512i weights4(const int8_t* v) {
  int32_t w = 0;
  std::memcpy(&w, v, sizeof(w));
  return _mm512_set1_epi32(w);
}

/// Requant::apply on 16 lanes: the wrapping multiply (vpmulld keeps the
/// low 32 bits), the arithmetic shift, and the int8 clip (vpmovsdb
/// saturates to exactly [-128, 127]).
inline __m128i requant16(__m512i acc, __m512i mult, __m128i shift) {
  return _mm512_cvtsepi32_epi8(
      _mm512_sra_epi32(_mm512_mullo_epi32(acc, mult), shift));
}

/// The N:M row loop both VNNI sparse instances share: for each output
/// channel k in [k_s, k_e), one vpdpbusd per four non-zeros of row k
/// against the u8-biased column block buf[col][16]. A row whose non-zero
/// count is not a multiple of four pads its last group with zero weights
/// on a column of the same row, so no load reads past the row's col/val.
/// Sixteen rows at a time are requantized, transposed to pixel-major and
/// stored as one masked 16-byte row per valid lane p < n at
/// out[p * kk + k].
inline void nm_rows16_vnni(const HostKernelDispatch& d, const int8_t* buf,
                           const Tensor32& bias, const Requant& rq, int k_s,
                           int k_e, int n, int8_t* out, int64_t kk) {
  const int32_t* row_start = d.row_start.data();
  const int32_t* row_sum = d.row_sum.data();
  const uint16_t* col = d.col.data();
  const int8_t* val = d.val.data();
  const __m512i perm = _mm512_set_epi32(15, 11, 7, 3, 14, 10, 6, 2, 13, 9,
                                        5, 1, 12, 8, 4, 0);
  // the same sequence as bytes, repeated in every 128-bit lane
  const __m512i shuf =
      _mm512_set4_epi32(0x0f0b0703, 0x0e0a0602, 0x0d090501, 0x0c080400);
  const __m512i mult = _mm512_set1_epi32(rq.mult);
  const __m128i shift = _mm_cvtsi32_si128(rq.shift);
  const auto row = [&](int k) {
    // sum((x + 128) * w) - 128 * sum(w) = sum(x * w), mod 2^32
    __m512i acc0 = _mm512_set1_epi32(static_cast<int32_t>(
        static_cast<uint32_t>(bias[k]) -
        128u * static_cast<uint32_t>(row_sum[k])));
    __m512i acc1 = _mm512_setzero_si512();  // second chain: hides latency
    const int e_end = row_start[k + 1];
    int e = row_start[k];
    for (; e + 8 <= e_end; e += 8) {
      acc0 = _mm512_dpbusd_epi32(acc0, gather4(buf, col + e, perm, shuf),
                                 weights4(val + e));
      acc1 = _mm512_dpbusd_epi32(acc1, gather4(buf, col + e + 4, perm, shuf),
                                 weights4(val + e + 4));
    }
    if (e + 4 <= e_end) {
      acc0 = _mm512_dpbusd_epi32(acc0, gather4(buf, col + e, perm, shuf),
                                 weights4(val + e));
      e += 4;
    }
    if (e < e_end) {
      uint16_t c4[4] = {};
      int8_t v4[4] = {};
      for (int j = 0; j < 4; ++j) {
        const bool live = e + j < e_end;
        c4[j] = col[live ? e + j : e];
        if (live) v4[j] = val[e + j];
      }
      acc1 = _mm512_dpbusd_epi32(acc1, gather4(buf, c4, perm, shuf),
                                 weights4(v4));
    }
    return requant16(_mm512_add_epi32(acc0, acc1), mult, shift);
  };
  for (int k0 = k_s; k0 < k_e; k0 += 16) {
    const int rows = std::min(16, k_e - k0);
    __m128i r[16];
    for (int j = 0; j < 16; ++j) {
      r[j] = j < rows ? row(k0 + j) : _mm_setzero_si128();
    }
    transpose16x16(r);
    const auto mask = static_cast<__mmask16>((1u << rows) - 1);
    for (int p = 0; p < n; ++p) {
      _mm_mask_storeu_epi8(out + p * kk + k0, mask, r[p]);
    }
  }
}

}  // namespace

void conv_dense_vnni(const HostKernelDispatch&, const Tensor8& input,
                     const Tensor8& weights, const Tensor32& bias,
                     const ConvGeom& g, const Requant& rq, int oy_s, int oy_e,
                     int k_s, int k_e, Tensor8& out) {
  const int ox = g.ox(), kk = g.k, fsz = g.fsz();
  const int fxc = g.fx * g.c;
  const int vec = fxc & ~63;  // 64-byte-covered prefix of each filter row
  const int64_t in_row = static_cast<int64_t>(g.ix) * g.c;
  const auto [x_lo, x_hi] = interior_range(g.ix, g.fx, g.stride, g.pad, ox);
  const auto [y_lo, y_hi] =
      interior_range(g.iy, g.fy, g.stride, g.pad, g.oy());
  const int8_t* in0 = input.data();
  const int8_t* w0 = weights.data();

  const auto interior_pixel = [&](const int8_t* in_base, int8_t* orow) {
    int k = k_s;
    for (; k + 1 < k_e; k += 2) {
      const int8_t* wr0 = w0 + static_cast<int64_t>(k) * fsz;
      const int8_t* wr1 = wr0 + fsz;
      __m512i acc0 = _mm512_setzero_si512(), corr0 = acc0;
      __m512i acc1 = acc0, corr1 = acc0;
      int32_t s0 = bias[k], s1 = bias[k + 1];
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        int i = 0;
        for (; i < vec; i += 64) {
          dot64(acc0, corr0, in + i, wr0 + wi + i);
          dot64(acc1, corr1, in + i, wr1 + wi + i);
        }
        for (; i < fxc; ++i) {
          const int32_t v = in[i];
          s0 += v * wr0[wi + i];
          s1 += v * wr1[wi + i];
        }
        wi += fxc;
      }
      orow[k] = rq.apply(s0 + combine(acc0, corr0));
      orow[k + 1] = rq.apply(s1 + combine(acc1, corr1));
    }
    for (; k < k_e; ++k) {
      const int8_t* wr = w0 + static_cast<int64_t>(k) * fsz;
      __m512i acc = _mm512_setzero_si512(), corr = acc;
      int32_t s = bias[k];
      int wi = 0;
      for (int fy = 0; fy < g.fy; ++fy) {
        const int8_t* in = in_base + fy * in_row;
        int i = 0;
        for (; i < vec; i += 64) dot64(acc, corr, in + i, wr + wi + i);
        for (; i < fxc; ++i) {
          s += static_cast<int32_t>(in[i]) * static_cast<int32_t>(wr[wi + i]);
        }
        wi += fxc;
      }
      orow[k] = rq.apply(s + combine(acc, corr));
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

void fc_dense_vnni(const HostKernelDispatch&, const Tensor8& input,
                   const Tensor8& weights, const Tensor32& bias,
                   const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                   Tensor8& out) {
  const int c = input.dim(1), kk = out.dim(1);
  const int vec = c & ~63;
  const int8_t* w0 = weights.data();

  // 2 tokens x 2 output channels: each weight chunk (and its correction
  // dot) is loaded once for two tokens
  int ti = t_s;
  for (; ti + 1 < t_e; ti += 2) {
    const int8_t* in0 = input.data() + static_cast<int64_t>(ti) * c;
    const int8_t* in1 = in0 + c;
    int8_t* orow = out.data() + static_cast<int64_t>(ti) * kk;
    int ki = k_s;
    for (; ki + 1 < k_e; ki += 2) {
      const int8_t* wr0 = w0 + static_cast<int64_t>(ki) * c;
      const int8_t* wr1 = wr0 + c;
      const __m512i bias_u8 = _mm512_set1_epi8(static_cast<char>(0x80));
      const __m512i ones = _mm512_set1_epi8(1);
      __m512i a00 = _mm512_setzero_si512(), a01 = a00, a10 = a00, a11 = a00;
      __m512i c0 = a00, c1 = a00;
      int i = 0;
      for (; i < vec; i += 64) {
        const __m512i x0 =
            _mm512_xor_si512(_mm512_loadu_si512(in0 + i), bias_u8);
        const __m512i x1 =
            _mm512_xor_si512(_mm512_loadu_si512(in1 + i), bias_u8);
        const __m512i v0 = _mm512_loadu_si512(wr0 + i);
        const __m512i v1 = _mm512_loadu_si512(wr1 + i);
        a00 = _mm512_dpbusd_epi32(a00, x0, v0);
        a01 = _mm512_dpbusd_epi32(a01, x0, v1);
        a10 = _mm512_dpbusd_epi32(a10, x1, v0);
        a11 = _mm512_dpbusd_epi32(a11, x1, v1);
        c0 = _mm512_dpbusd_epi32(c0, ones, v0);
        c1 = _mm512_dpbusd_epi32(c1, ones, v1);
      }
      int32_t s00 = bias[ki] + combine(a00, c0);
      int32_t s01 = bias[ki + 1] + combine(a01, c1);
      int32_t s10 = bias[ki] + combine(a10, c0);
      int32_t s11 = bias[ki + 1] + combine(a11, c1);
      for (; i < c; ++i) {
        const int32_t b0 = wr0[i], b1 = wr1[i];
        const int32_t v0 = in0[i], v1 = in1[i];
        s00 += v0 * b0;
        s01 += v0 * b1;
        s10 += v1 * b0;
        s11 += v1 * b1;
      }
      orow[ki] = rq.apply(s00);
      orow[ki + 1] = rq.apply(s01);
      orow[kk + ki] = rq.apply(s10);
      orow[kk + ki + 1] = rq.apply(s11);
    }
    for (; ki < k_e; ++ki) {
      const int8_t* w = w0 + static_cast<int64_t>(ki) * c;
      __m512i acc0 = _mm512_setzero_si512(), corr0 = acc0;
      __m512i acc1 = acc0, corr1 = acc0;
      int i = 0;
      for (; i < vec; i += 64) {
        dot64(acc0, corr0, in0 + i, w + i);
        dot64(acc1, corr1, in1 + i, w + i);
      }
      int32_t s0 = bias[ki] + combine(acc0, corr0);
      int32_t s1 = bias[ki] + combine(acc1, corr1);
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
      __m512i acc = _mm512_setzero_si512(), corr = acc;
      int i = 0;
      for (; i < vec; i += 64) dot64(acc, corr, in + i, w + i);
      int32_t s = bias[ki] + combine(acc, corr);
      for (; i < c; ++i) {
        s += static_cast<int32_t>(in[i]) * static_cast<int32_t>(w[i]);
      }
      orow[ki] = rq.apply(s);
    }
  }
}

void conv_nm_vnni(const HostKernelDispatch& d, const Tensor8& input,
                  const Tensor8&, const Tensor32& bias, const ConvGeom& g,
                  const Requant& rq, int oy_s, int oy_e, int k_s, int k_e,
                  Tensor8& out) {
  if (k_s >= k_e) return;
  pixel_blocks16(input, g, oy_s * g.ox(), oy_e * g.ox(), kU8Bias, out,
                 [&](const int8_t* buf, int n, int8_t* oblk) {
                   nm_rows16_vnni(d, buf, bias, rq, k_s, k_e, n, oblk, g.k);
                 });
}

void fc_nm_vnni(const HostKernelDispatch& d, const Tensor8& input,
                const Tensor8&, const Tensor32& bias, const Requant& rq,
                int t_s, int t_e, int k_s, int k_e, Tensor8& out) {
  if (k_s >= k_e) return;
  // the tokens are the pixels of a 1x1 conv over a 1 x T image, so their
  // [C][16] block is im2col's
  const ConvGeom g{input.dim(0), 1, input.dim(1), out.dim(1)};
  pixel_blocks16(input, g, t_s, t_e, kU8Bias, out,
                 [&](const int8_t* buf, int n, int8_t* oblk) {
                   nm_rows16_vnni(d, buf, bias, rq, k_s, k_e, n, oblk, g.k);
                 });
}

}  // namespace hostk
}  // namespace decimate
