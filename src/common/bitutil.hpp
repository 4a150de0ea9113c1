#pragma once
// Small bit-manipulation helpers shared by the ISA model, the N:M packers,
// the quantization code and the serving deadline arithmetic.

#include <cstdint>

#include "common/check.hpp"

namespace decimate {

/// Extract bits [hi:lo] (inclusive, hi >= lo) of a 32-bit word.
constexpr uint32_t bits(uint32_t word, unsigned hi, unsigned lo) {
  const unsigned width = hi - lo + 1;
  if (width >= 32) return word >> lo;
  return (word >> lo) & ((1u << width) - 1u);
}

/// Set bits [hi:lo] of `word` to `value` (low bits of value used).
constexpr uint32_t set_bits(uint32_t word, unsigned hi, unsigned lo,
                            uint32_t value) {
  const unsigned width = hi - lo + 1;
  const uint32_t mask =
      (width >= 32) ? ~0u : (((1u << width) - 1u) << lo);
  return (word & ~mask) | ((value << lo) & mask);
}

/// Sign-extend the low `width` bits of `v`.
constexpr int32_t sign_extend(uint32_t v, unsigned width) {
  const uint32_t m = 1u << (width - 1);
  v &= (width >= 32) ? ~0u : ((1u << width) - 1u);
  return static_cast<int32_t>((v ^ m) - m);
}

/// a + b, clamped at UINT64_MAX instead of wrapping.
constexpr uint64_t saturating_add(uint64_t a, uint64_t b) {
  const uint64_t sum = a + b;
  return sum < a ? UINT64_MAX : sum;
}

/// Ceiling division for non-negative integers.
constexpr int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Round `a` up to the next multiple of `b`.
constexpr int64_t round_up(int64_t a, int64_t b) { return ceil_div(a, b) * b; }

/// True if `v` is a power of two (v > 0).
constexpr bool is_pow2(int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

/// ceil(log2(v)) for v >= 1.
constexpr unsigned ceil_log2(uint64_t v) {
  unsigned r = 0;
  uint64_t p = 1;
  while (p < v) {
    p <<= 1;
    ++r;
  }
  return r;
}

/// Pack 4 int8 lanes into a 32-bit SIMD word (lane 0 = least significant).
constexpr uint32_t pack_b4(int8_t b0, int8_t b1, int8_t b2, int8_t b3) {
  return (static_cast<uint32_t>(static_cast<uint8_t>(b0))) |
         (static_cast<uint32_t>(static_cast<uint8_t>(b1)) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(b2)) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(b3)) << 24);
}

/// Extract int8 lane `i` (0..3) from a 32-bit SIMD word.
constexpr int8_t lane_b(uint32_t word, unsigned i) {
  return static_cast<int8_t>((word >> (8 * i)) & 0xFF);
}

/// Signed 8-bit 4-lane dot product: sum_i a.b[i] * b.b[i].
constexpr int32_t sdot4(uint32_t a, uint32_t b) {
  int32_t acc = 0;
  for (unsigned i = 0; i < 4; ++i) {
    acc += static_cast<int32_t>(lane_b(a, i)) * static_cast<int32_t>(lane_b(b, i));
  }
  return acc;
}

/// Saturating clip of a 32-bit value to signed `bits_` (p.clip semantics).
constexpr int32_t clip_signed(int32_t v, unsigned bits_) {
  const int32_t hi = (1 << (bits_ - 1)) - 1;
  const int32_t lo = -(1 << (bits_ - 1));
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace decimate
