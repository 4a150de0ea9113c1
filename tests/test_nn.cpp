#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/nm_format.hpp"
#include "nn/prune.hpp"
#include "nn/quant.hpp"
#include "nn/ref_ops.hpp"

namespace decimate {
namespace {

TEST(Tensor, ShapeAndIndexing) {
  Tensor8 t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  t.at({1, 2, 3}) = 7;
  EXPECT_EQ(t.at({1, 2, 3}), 7);
  EXPECT_EQ(t[23], 7);
  EXPECT_THROW(t.at({2, 0, 0}), Error);
  EXPECT_THROW(t.at({0, 0}), Error);
  EXPECT_THROW(Tensor8({0, 3}), Error);
  // 2^31 elements is one too many; 2^64 must throw before int64_t
  // arithmetic could wrap
  EXPECT_THROW(Tensor8({1 << 16, 1 << 15}), Error);
  EXPECT_THROW(Tensor8({1 << 21, 1 << 21, 1 << 21, 2}), Error);
}

TEST(Quant, RequantMatchesKernelSequence) {
  const Requant rq{5, 7};
  // t = (acc * 5) >> 7, clipped to int8
  EXPECT_EQ(rq.apply(128), 5);
  EXPECT_EQ(rq.apply(-128), -5);
  EXPECT_EQ(rq.apply(1 << 20), 127);
  EXPECT_EQ(rq.apply(-(1 << 20)), -128);
  EXPECT_EQ(rq.apply(0), 0);
}

TEST(Quant, MakeRequantApproximatesScale) {
  const double scale = 1.0 / 300.0;
  const Requant rq = make_requant(scale, /*max_abs_acc=*/100000);
  // check the fixed-point approximation on a mid-range accumulator
  const int32_t acc = 30000;
  const double ideal = acc * scale;
  const double got = rq.apply(acc);
  EXPECT_NEAR(got, ideal, 2.0);
  // multiplier respects the overflow cap
  EXPECT_LE(static_cast<int64_t>(rq.mult) * 100000, (1ll << 31) - 1);
}

TEST(Quant, QuantizeSymmetricRoundtrip) {
  std::vector<float> x = {0.5f, -1.0f, 0.25f, 0.0f};
  std::vector<int8_t> q(4);
  const float scale = quantize_symmetric(x, q);
  EXPECT_EQ(q[1], -127);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(q[i] * scale, x[i], scale);
  }
}

TEST(Quant, IsqrtMatchesFloor) {
  for (uint32_t v : {0u, 1u, 2u, 3u, 4u, 15u, 16u, 17u, 1024u, 999999u,
                     4294967295u}) {
    const auto r = isqrt_u32(v);
    EXPECT_LE(static_cast<uint64_t>(r) * r, v);
    EXPECT_GT(static_cast<uint64_t>(r + 1) * (r + 1), v);
  }
}

TEST(Quant, SoftmaxRowProducesDistribution) {
  const auto lut = build_exp_lut(0.1f);
  std::vector<int8_t> x = {10, 20, 30, 40, -50};
  std::vector<int8_t> out(5);
  softmax_s8_row(x, lut, out);
  // monotone in the logits, max close to the winner
  EXPECT_GE(out[3], out[2]);
  EXPECT_GE(out[2], out[1]);
  EXPECT_GE(out[1], out[0]);
  EXPECT_GE(out[0], out[4]);
  int32_t sum = 0;
  for (int8_t v : out) sum += v;
  EXPECT_GT(sum, 60);   // probabilities roughly sum to 127
  EXPECT_LE(sum, 127 + 5);
}

TEST(Quant, LayernormRowCentersAndScales) {
  std::vector<int8_t> x(64);
  for (int i = 0; i < 64; ++i) x[i] = static_cast<int8_t>((i % 16) * 4 - 30);
  std::vector<int8_t> gamma(64, 64);  // gamma = 1.0 in Q6
  std::vector<int8_t> beta(64, 0);
  std::vector<int8_t> out(64);
  layernorm_s8_row(x, gamma, beta, out);
  int32_t sum = 0;
  for (int8_t v : out) sum += v;
  // approximately zero-mean
  EXPECT_LT(std::abs(sum), 64 * 3);
  // normalized magnitude ~16 per unit std
  int32_t amax = 0;
  for (int8_t v : out) amax = std::max<int32_t>(amax, std::abs(v));
  EXPECT_GT(amax, 8);
  EXPECT_LT(amax, 64);
}

TEST(Prune, MagnitudeKeepsLargestPerBlock) {
  std::vector<int8_t> w = {1, -9, 3, 2,   5, 4, -3, 2};
  nm_prune(std::span<int8_t>(w), 1, 8, 1, 4);
  EXPECT_EQ(w[1], -9);
  EXPECT_EQ(w[0], 0);
  EXPECT_EQ(w[2], 0);
  EXPECT_EQ(w[3], 0);
  EXPECT_EQ(w[4], 5);
  EXPECT_EQ(w[5], 0);
}

TEST(Prune, TwoToFourKeepsTwo) {
  std::vector<int8_t> w = {1, -9, 3, 2};
  nm_prune(std::span<int8_t>(w), 1, 4, 2, 4);
  EXPECT_EQ(w[1], -9);
  EXPECT_EQ(w[2], 3);
  EXPECT_EQ(w[0], 0);
  EXPECT_EQ(w[3], 0);
}

TEST(Prune, DetectOneToM) {
  Rng rng(7);
  for (int m : {4, 8, 16}) {
    Tensor8 w = Tensor8::random({8, 64}, rng);
    nm_prune(w.flat(), 8, 64, 1, m);
    EXPECT_TRUE(is_nm_sparse(w.flat(), 8, 64, 1, m));
    EXPECT_EQ(detect_one_to_m(w.flat(), 8, 64), m) << "m=" << m;
  }
  Tensor8 dense = Tensor8::random({8, 64}, rng);
  EXPECT_EQ(detect_one_to_m(dense.flat(), 8, 64), 0);
}

TEST(Prune, SparsityFraction) {
  std::vector<int8_t> w(100, 0);
  for (int i = 0; i < 25; ++i) w[static_cast<size_t>(i)] = 1;
  EXPECT_DOUBLE_EQ(sparsity(w), 0.75);
}

class NmFormatRoundtrip
    : public ::testing::TestWithParam<std::tuple<int, NmLayout, int, int>> {};

TEST_P(NmFormatRoundtrip, PackUnpackIsIdentity) {
  const auto [m, layout, rows, cols] = GetParam();
  if (cols % m != 0) GTEST_SKIP();
  Rng rng(static_cast<uint64_t>(m * 1000 + rows));
  Tensor8 w = Tensor8::random({rows, cols}, rng);
  nm_prune(w.flat(), rows, cols, 1, m);
  const NmPacked packed = nm_pack(w.flat(), rows, cols, m, layout);
  const Tensor8 dense = packed.to_dense();
  // Equality up to zero-value NZ entries (a pruned block whose survivor is
  // itself zero packs as value 0 at offset 0 — both reconstruct to zeros).
  ASSERT_EQ(dense.shape(), w.shape());
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_EQ(dense[i], w[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, NmFormatRoundtrip,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(NmLayout::kSw, NmLayout::kConvIsaDup,
                                         NmLayout::kFcIsaInterleaved),
                       ::testing::Values(2, 8, 10),
                       ::testing::Values(16, 32, 144)));

TEST(NmFormat, PaperMemorySavings) {
  // Sec. 4: 1:4 -> 68.75%, 1:8 -> 81.25%, 1:16 -> 90.62% (SW layout);
  // duplicated offsets: 62.5%, 75%, 87.5% (Sec. 4.1.3).
  const int rows = 64, cols = 1024;
  const auto dense = static_cast<double>(dense_bytes(rows, cols));
  EXPECT_NEAR(1.0 - nm_bytes(rows, cols, 4, false) / dense, 0.6875, 1e-3);
  EXPECT_NEAR(1.0 - nm_bytes(rows, cols, 8, false) / dense, 0.8125, 1e-3);
  EXPECT_NEAR(1.0 - nm_bytes(rows, cols, 16, false) / dense, 0.90625, 1e-3);
  EXPECT_NEAR(1.0 - nm_bytes(rows, cols, 4, true) / dense, 0.625, 1e-3);
  EXPECT_NEAR(1.0 - nm_bytes(rows, cols, 8, true) / dense, 0.75, 1e-3);
  EXPECT_NEAR(1.0 - nm_bytes(rows, cols, 16, true) / dense, 0.875, 1e-3);
}

TEST(NmFormat, CsrWorseThanNmAtSameSparsity) {
  // Paper Sec. 4: CSR yields <25% compression at 75% sparsity vs 68.75%.
  const int rows = 256, cols = 1152;
  const int64_t nnz = static_cast<int64_t>(rows) * cols / 4;
  const auto dense = static_cast<double>(dense_bytes(rows, cols));
  const double csr_saving = 1.0 - csr_bytes(rows, nnz) / dense;
  EXPECT_LT(csr_saving, 0.25);
  EXPECT_GT(1.0 - nm_bytes(rows, cols, 4, false) / dense, 0.65);
}

TEST(NmFormat, PaddedRowsAreZeroFilled) {
  // 18 NZ per row (C=32, 3x3, M=16) pads to 20.
  Rng rng(3);
  Tensor8 w = Tensor8::random({4, 288}, rng);
  nm_prune(w.flat(), 4, 288, 1, 16);
  const NmPacked p = nm_pack(w.flat(), 4, 288, 16, NmLayout::kSw);
  EXPECT_EQ(p.nz_per_row, 18);
  EXPECT_EQ(p.nz_padded, 20);
  EXPECT_EQ(p.values_row_bytes, 20);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(p.values[static_cast<size_t>(r) * 20 + 18], 0);
    EXPECT_EQ(p.values[static_cast<size_t>(r) * 20 + 19], 0);
  }
  EXPECT_EQ(p.gather_slack_bytes(), 32);
}

TEST(NmFormat, RejectsNonSparseMatrix) {
  Rng rng(4);
  Tensor8 w = Tensor8::random({4, 64}, rng);
  EXPECT_THROW(nm_pack(w.flat(), 4, 64, 8, NmLayout::kSw), Error);
}

TEST(RefOps, ConvMatchesManualSmallCase) {
  // 1x1 input, 1x1 filter: out = requant(bias + in*w)
  ConvGeom g{.ix = 2, .iy = 2, .c = 4, .k = 2, .fx = 1, .fy = 1};
  Tensor8 in({2, 2, 4});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = static_cast<int8_t>(i + 1);
  Tensor8 w({2, 4});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = static_cast<int8_t>(i % 3);
  Tensor32 bias({2});
  bias[0] = 10;
  bias[1] = -10;
  const Requant rq{1, 0};
  const Tensor8 out = conv2d_s8(in, w, bias, g, rq);
  // pixel (0,0): in = {1,2,3,4}; w0 = {0,1,2,0} -> 2+6 = 8; +10 = 18
  EXPECT_EQ(out.at({0, 0, 0}), 18);
  // w1 = {1,2,0,1} -> 1+4+4 = 9; -10 = -1
  EXPECT_EQ(out.at({0, 0, 1}), -1);
}

TEST(RefOps, ConvPaddingZeroes) {
  ConvGeom g{.ix = 4, .iy = 4, .c = 4, .k = 4, .fx = 3, .fy = 3, .stride = 1,
             .pad = 1};
  Rng rng(11);
  Tensor8 in = Tensor8::random({4, 4, 4}, rng);
  Tensor8 w({4, g.fsz()}, 0);
  // filter that only reads the top-left tap: corner output sees padding
  for (int k = 0; k < 4; ++k) w.at({k, 0}) = 1;
  Tensor32 bias({4}, 0);
  const Tensor8 out = conv2d_s8(in, w, bias, g, Requant{1, 0});
  EXPECT_EQ(out.at({0, 0, 0}), 0);           // top-left tap is padding
  EXPECT_EQ(out.at({1, 1, 0}), in.at({0, 0, 0}));
}

TEST(RefOps, FcMatchesManual) {
  Tensor8 in({1, 4});
  in[0] = 1; in[1] = 2; in[2] = 3; in[3] = 4;
  Tensor8 w({2, 4});
  for (int i = 0; i < 4; ++i) {
    w.at({0, i}) = 1;
    w.at({1, i}) = static_cast<int8_t>(-i);
  }
  Tensor32 bias({2});
  bias[0] = 0;
  bias[1] = 100;
  const Tensor8 out = fc_s8(in, w, bias, Requant{1, 0});
  EXPECT_EQ(out.at({0, 0}), 10);
  EXPECT_EQ(out.at({0, 1}), 100 - (0 + 2 + 6 + 12));
}

TEST(RefOps, ReluAddPoolLut) {
  Tensor8 x({2, 2, 2});
  x[0] = -5; x[1] = 5; x[2] = -1; x[3] = 0; x[4] = 7; x[5] = -7; x[6] = 3; x[7] = -3;
  const Tensor8 r = relu_s8(x);
  EXPECT_EQ(r[0], 0);
  EXPECT_EQ(r[1], 5);
  const Tensor8 mp = maxpool2x2_s8(x);
  EXPECT_EQ(mp.shape(), (std::vector<int>{1, 1, 2}));
  EXPECT_EQ(mp.at({0, 0, 0}), 7);
  EXPECT_EQ(mp.at({0, 0, 1}), 5);
  const Tensor8 ap = global_avgpool_s8(x, Requant{1, 2});  // sum >> 2
  EXPECT_EQ(ap[0], (-5 + -1 + 7 + 3) >> 2);
  const Tensor8 s = add_s8(x, Requant{1, 0}, x, Requant{1, 0});
  EXPECT_EQ(s[1], 10);
  EXPECT_EQ(s[0], -10);
  std::vector<int8_t> lut(256);
  for (int i = 0; i < 256; ++i) {
    lut[static_cast<size_t>(i)] = static_cast<int8_t>(i / 2);
  }
  const Tensor8 l = lut_s8(x, lut);
  EXPECT_EQ(l[1], lut[5]);
  EXPECT_EQ(l[0], lut[static_cast<uint8_t>(-5)]);
}

TEST(RefOps, GeluLutIsMonotoneNonDecreasingOnPositives) {
  const auto lut = build_gelu_lut(0.05f, 0.05f);
  for (int q = 0; q < 126; ++q) {
    EXPECT_LE(lut[static_cast<size_t>(q)], lut[static_cast<size_t>(q + 1)]);
  }
  EXPECT_EQ(lut[0], 0);  // gelu(0) = 0
}

}  // namespace
}  // namespace decimate
