#pragma once
// Internal header for the SIMD host kernel translation units ONLY
// (host_kernels_avx2.cpp and host_kernels_avx512.cpp): the 16-lane block
// builders the pixel-major instances share. Like host_kernels_impl.hpp,
// every function is `static inline`, so each TU compiles a private copy
// under its own ISA flags; the builders themselves need only SSE2.
//
// A block is buf[cols][16]: row j holds column j of the dense weight order
// (conv: tap * C + channel, FC: input feature) for 16 output pixels or
// tokens side by side, so a gather column indexes the block directly.

#include <immintrin.h>

#include "nn/host_kernels_impl.hpp"

namespace decimate {
namespace hostk {

/// In-place 16x16 byte transpose: byte j of r[i] moves to byte i of r[j].
/// Each round rotates every element's 8-bit (register, byte) address left
/// by one bit; four rounds swap the register and byte halves.
static inline void transpose16x16(__m128i r[16]) {
  for (int round = 0; round < 4; ++round) {
    __m128i t[16];
    for (int j = 0; j < 8; ++j) {
      t[2 * j] = _mm_unpacklo_epi8(r[j], r[j + 8]);
      t[2 * j + 1] = _mm_unpackhi_epi8(r[j], r[j + 8]);
    }
    for (int j = 0; j < 16; ++j) r[j] = t[j];
  }
}

/// im2col_block at 16 lanes, every byte XORed with `flip` (0, or 0x80 to
/// bias int8 into the u8 operand of vpdpbusd, so a padded tap reads
/// 0x80). With C % 16 == 0 every (tap, 16-channel group) is one transpose
/// of 16 pixel rows, a padded tap reading the zero row `zeros` (>= C
/// bytes); other channel counts take the scalar fill.
static inline void im2col16(const int8_t* in0, const ConvGeom& g, int q0,
                            int n, const int8_t* zeros, uint8_t flip,
                            int8_t* buf) {
  const __m128i fv = _mm_set1_epi8(static_cast<char>(flip));
  if (g.c % 16 != 0) {
    im2col_block(in0, g, q0, n, 16, buf);
    if (flip != 0) {
      const size_t bytes = static_cast<size_t>(g.fsz()) * 16;
      for (size_t i = 0; i < bytes; i += 16) {
        auto* p = reinterpret_cast<__m128i*>(buf + i);
        _mm_store_si128(p, _mm_xor_si128(_mm_load_si128(p), fv));
      }
    }
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
                          _mm_xor_si128(r[i], fv));
        }
      }
    }
  }
}

/// Walk the flattened output pixels [q_s, q_e) of `g` in blocks of 16:
/// fill each block (bytes XORed with `flip`), then hand it to
/// `rows(buf, n, out_block)` with n valid lanes, out_block pointing at the
/// block's first output pixel. An FC runs as a 1x1 conv over a 1 x T
/// image, its tokens the pixels.
template <typename RowsFn>
static inline void pixel_blocks16(const Tensor8& input, const ConvGeom& g,
                                  int q_s, int q_e, uint8_t flip,
                                  Tensor8& out, RowsFn&& rows) {
  const size_t block = static_cast<size_t>(g.fsz()) * 16;
  // the block buffer, then a zero row of C bytes for padded taps
  AlignedVec<int8_t> buf(block + static_cast<size_t>(g.c));
  for (int q = q_s; q < q_e; q += 16) {
    const int n = std::min(16, q_e - q);
    im2col16(input.data(), g, q, n, buf.data() + block, flip, buf.data());
    rows(buf.data(), n, out.data() + static_cast<int64_t>(q) * g.k);
  }
}

}  // namespace hostk
}  // namespace decimate
