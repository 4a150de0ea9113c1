// Bit-exactness of the convolution kernel programs vs the reference ops,
// across a sweep of geometries, sparsities and kernel kinds, plus the
// paper's inner-loop instruction-count analysis (Sec. 4.1).

#include <gtest/gtest.h>

#include "nn/ref_ops.hpp"
#include "testutil.hpp"

namespace decimate {
namespace {

using test::TestRig;

struct ConvCase {
  KernelKind kind;
  int m;  // 0 = dense
  ConvGeom g;
};

std::string case_name(const ::testing::TestParamInfo<ConvCase>& info) {
  const auto& c = info.param;
  std::string n = kernel_kind_name(c.kind);
  for (auto& ch : n) {
    if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return n + "_m" + std::to_string(c.m) + "_c" + std::to_string(c.g.c) + "_k" +
         std::to_string(c.g.k) + "_f" + std::to_string(c.g.fx) + "_s" +
         std::to_string(c.g.stride) + "_p" + std::to_string(c.g.pad) + "_i" +
         std::to_string(c.g.ix) + "_" + std::to_string(info.index);
}

class ConvKernelTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernelTest, MatchesReference) {
  const auto& c = GetParam();
  Rng rng(0xC0FFEE + static_cast<uint64_t>(c.g.c) * 31 + c.m);
  TestRig rig;
  const Tensor8 input = Tensor8::random({c.g.iy, c.g.ix, c.g.c}, rng);
  const Tensor32 bias = test::random_bias(c.g.k, rng);
  const Requant rq = test::test_requant();

  Tensor8 dense_w = (c.m == 0)
                        ? test::random_weights(c.g.k, c.g.fsz(), rng)
                        : test::random_sparse_weights(c.g.k, c.g.fsz(), c.m, rng);
  const Tensor8 expected = conv2d_s8(input, dense_w, bias, c.g, rq);

  KernelRun run;
  if (kernel_is_sparse(c.kind)) {
    const NmPacked packed = nm_pack(dense_w.flat(), c.g.k, c.g.fsz(), c.m,
                                    TileRunner::layout_for(c.kind));
    run = rig.runner->conv(c.kind, c.g, rq, input, nullptr, &packed, bias);
  } else {
    run = rig.runner->conv(c.kind, c.g, rq, input, &dense_w, nullptr, bias);
  }
  ASSERT_EQ(run.output.shape(), expected.shape());
  for (int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(run.output[i], expected[i])
        << "first mismatch at flat index " << i << " for "
        << kernel_kind_name(c.kind) << " m=" << c.m;
  }
  EXPECT_GT(run.result.wall_cycles, 0u);
  EXPECT_EQ(run.dense_macs, c.g.macs());
}

constexpr ConvGeom kG8x8C32K8{.ix = 8, .iy = 8, .c = 32, .k = 8, .fx = 3,
                              .fy = 3, .stride = 1, .pad = 1};
constexpr ConvGeom kG8x8C64K8{.ix = 8, .iy = 8, .c = 64, .k = 8, .fx = 3,
                              .fy = 3, .stride = 1, .pad = 1};
constexpr ConvGeom kG4x4C64K16{.ix = 4, .iy = 4, .c = 64, .k = 16, .fx = 3,
                               .fy = 3, .stride = 1, .pad = 1};
constexpr ConvGeom kGPw1x1{.ix = 6, .iy = 6, .c = 32, .k = 12, .fx = 1,
                           .fy = 1, .stride = 1, .pad = 0};
constexpr ConvGeom kGStride2{.ix = 8, .iy = 8, .c = 32, .k = 8, .fx = 3,
                             .fy = 3, .stride = 2, .pad = 1};
constexpr ConvGeom kGDown1x1s2{.ix = 8, .iy = 8, .c = 32, .k = 16, .fx = 1,
                               .fy = 1, .stride = 2, .pad = 0};
constexpr ConvGeom kG5x5{.ix = 12, .iy = 6, .c = 16, .k = 4, .fx = 5, .fy = 5,
                         .stride = 1, .pad = 2};
constexpr ConvGeom kGPatch16{.ix = 32, .iy = 32, .c = 4, .k = 8, .fx = 16,
                             .fy = 16, .stride = 16, .pad = 0};

INSTANTIATE_TEST_SUITE_P(
    Dense, ConvKernelTest,
    ::testing::Values(
        ConvCase{KernelKind::kConvDense1x2, 0, kG8x8C32K8},
        ConvCase{KernelKind::kConvDense1x2, 0, kG4x4C64K16},
        ConvCase{KernelKind::kConvDense1x2, 0, kGPw1x1},
        ConvCase{KernelKind::kConvDense1x2, 0, kGStride2},
        ConvCase{KernelKind::kConvDense1x2, 0, kGDown1x1s2},
        ConvCase{KernelKind::kConvDense1x2, 0, kG5x5},
        ConvCase{KernelKind::kConvDense1x2, 0, kGPatch16},
        ConvCase{KernelKind::kConvDense4x2, 0, kG8x8C32K8},
        ConvCase{KernelKind::kConvDense4x2, 0, kG4x4C64K16},
        ConvCase{KernelKind::kConvDense4x2, 0, kGPw1x1},
        ConvCase{KernelKind::kConvDense4x2, 0, kGStride2},
        ConvCase{KernelKind::kConvDense4x2, 0, kGDown1x1s2},
        ConvCase{KernelKind::kConvDense4x2, 0, kGPatch16}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SparseSw, ConvKernelTest,
    ::testing::Values(
        ConvCase{KernelKind::kConvSparseSw, 4, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseSw, 8, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseSw, 16, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseSw, 4, kG4x4C64K16},
        ConvCase{KernelKind::kConvSparseSw, 8, kG4x4C64K16},
        ConvCase{KernelKind::kConvSparseSw, 16, kG4x4C64K16},
        ConvCase{KernelKind::kConvSparseSw, 8, kGStride2},
        ConvCase{KernelKind::kConvSparseSw, 16, kGStride2},
        ConvCase{KernelKind::kConvSparseSw, 8, kGPw1x1},
        ConvCase{KernelKind::kConvSparseSw, 4, kG5x5},
        ConvCase{KernelKind::kConvSparseSw, 8, kGPatch16},
        ConvCase{KernelKind::kConvSparseSw, 2, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseSw, 2, kG4x4C64K16},
        ConvCase{KernelKind::kConvSparseSw, 2, kGStride2}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SparseIsa, ConvKernelTest,
    ::testing::Values(
        ConvCase{KernelKind::kConvSparseIsa, 4, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseIsa, 8, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseIsa, 16, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseIsa, 4, kG4x4C64K16},
        ConvCase{KernelKind::kConvSparseIsa, 8, kG4x4C64K16},
        ConvCase{KernelKind::kConvSparseIsa, 16, kG4x4C64K16},
        ConvCase{KernelKind::kConvSparseIsa, 8, kGStride2},
        ConvCase{KernelKind::kConvSparseIsa, 16, kGStride2},
        ConvCase{KernelKind::kConvSparseIsa, 8, kGPw1x1},
        ConvCase{KernelKind::kConvSparseIsa, 4, kG5x5},
        ConvCase{KernelKind::kConvSparseIsa, 16, kGPatch16}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SparseIm2colAblation, ConvKernelTest,
    ::testing::Values(
        ConvCase{KernelKind::kConvSparseIm2col, 8, kG8x8C32K8},
        ConvCase{KernelKind::kConvSparseIm2col, 16, kG4x4C64K16}),
    case_name);

TEST(ConvKernelInstrCounts, InnerLoopsMatchPaper) {
  // Sec. 4.1: 14 (4x2), 5 (1x2), 22/23 (SW 1:8,1:16 / 1:4), 12 (ISA).
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvDense4x2, 0)
                .region_length(kInnerBegin, kInnerEnd),
            14);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvDense1x2, 0)
                .region_length(kInnerBegin, kInnerEnd),
            5);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvSparseSw, 8)
                .region_length(kInnerBegin, kInnerEnd),
            22);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvSparseSw, 16)
                .region_length(kInnerBegin, kInnerEnd),
            22);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvSparseSw, 4)
                .region_length(kInnerBegin, kInnerEnd),
            23);
  // M=2 shares the M=4 body (2-bit offsets): same inner-loop length.
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvSparseSw, 2)
                .region_length(kInnerBegin, kInnerEnd),
            23);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvSparseIsa, 8)
                .region_length(kInnerBegin, kInnerEnd),
            12);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvSparseIsa, 16)
                .region_length(kInnerBegin, kInnerEnd),
            12);
  // M=4 ISA: one offsets word covers two logical iterations.
  EXPECT_EQ(TileRunner::program_for(KernelKind::kConvSparseIsa, 4)
                .region_length(kInnerBegin, kInnerEnd),
            23);
}

TEST(ConvKernelPeaks, MacsPerInstructionApproachTheory) {
  // Large-C conv so the inner loop dominates; compare measured MAC/instr
  // against the theoretical peak of Sec. 4.1 (within 25% for im2col etc).
  const ConvGeom g{.ix = 8, .iy = 8, .c = 128, .k = 16, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  Rng rng(5);
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  const Tensor32 bias = test::random_bias(g.k, rng);
  const Requant rq = test::test_requant();

  auto measure = [&](KernelKind kind, int m) {
    TestRig rig;
    KernelRun run;
    if (kernel_is_sparse(kind)) {
      Tensor8 w = test::random_sparse_weights(g.k, g.fsz(), m, rng);
      const NmPacked packed =
          nm_pack(w.flat(), g.k, g.fsz(), m, TileRunner::layout_for(kind));
      run = rig.runner->conv(kind, g, rq, input, nullptr, &packed, bias);
    } else {
      Tensor8 w = test::random_weights(g.k, g.fsz(), rng);
      run = rig.runner->conv(kind, g, rq, input, &w, nullptr, bias);
    }
    // logical (not dense-equivalent) MACs per executed instruction
    const double logical_macs =
        static_cast<double>(g.macs()) / std::max(m, 1);
    return logical_macs / static_cast<double>(run.result.total_instructions);
  };

  EXPECT_NEAR(measure(KernelKind::kConvDense4x2, 0), 2.28, 0.6);
  EXPECT_NEAR(measure(KernelKind::kConvDense1x2, 0), 1.60, 0.4);
  EXPECT_NEAR(measure(KernelKind::kConvSparseSw, 8), 0.36, 0.09);
  EXPECT_NEAR(measure(KernelKind::kConvSparseIsa, 8), 0.66, 0.17);
}

TEST(ConvKernel, RejectsBadGeometry) {
  TestRig rig;
  Rng rng(1);
  // odd OX
  ConvGeom g{.ix = 5, .iy = 4, .c = 8, .k = 4, .fx = 1, .fy = 1};
  Tensor8 in = Tensor8::random({4, 5, 8}, rng);
  Tensor8 w = test::random_weights(4, 8, rng);
  Tensor32 bias({4}, 0);
  EXPECT_THROW(rig.runner->conv(KernelKind::kConvDense1x2, g,
                                test::test_requant(), in, &w, nullptr, bias),
               Error);
  // C not multiple of 4
  ConvGeom g2{.ix = 4, .iy = 4, .c = 3, .k = 4, .fx = 1, .fy = 1};
  Tensor8 in2 = Tensor8::random({4, 4, 3}, rng);
  Tensor8 w2 = test::random_weights(4, 3, rng);
  EXPECT_THROW(rig.runner->conv(KernelKind::kConvDense1x2, g2,
                                test::test_requant(), in2, &w2, nullptr,
                                bias),
               Error);
  // 4x2 needs K % 4
  ConvGeom g3{.ix = 4, .iy = 4, .c = 8, .k = 6, .fx = 1, .fy = 1};
  Tensor8 in3 = Tensor8::random({4, 4, 8}, rng);
  Tensor8 w3 = test::random_weights(6, 8, rng);
  Tensor32 bias3({6}, 0);
  EXPECT_THROW(rig.runner->conv(KernelKind::kConvDense4x2, g3,
                                test::test_requant(), in3, &w3, nullptr,
                                bias3),
               Error);
}

TEST(ConvKernel, SingleCoreAndLockstepAgreeWithReference) {
  const ConvGeom g = kG8x8C32K8;
  Rng rng(77);
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  const Tensor32 bias = test::random_bias(g.k, rng);
  Tensor8 w = test::random_sparse_weights(g.k, g.fsz(), 8, rng);
  const NmPacked packed = nm_pack(w.flat(), g.k, g.fsz(), 8, NmLayout::kSw);
  const Tensor8 expected = conv2d_s8(input, w, bias, g, test::test_requant());

  TestRig one_core(1);
  const KernelRun r1 = one_core.runner->conv(
      KernelKind::kConvSparseSw, g, test::test_requant(), input, nullptr,
      &packed, bias);
  EXPECT_TRUE(r1.output == expected);

  TestRig lockstep(8, /*lockstep=*/true);
  const KernelRun r2 = lockstep.runner->conv(
      KernelKind::kConvSparseSw, g, test::test_requant(), input, nullptr,
      &packed, bias);
  EXPECT_TRUE(r2.output == expected);
  // contention can only slow things down
  TestRig seq(8);
  const KernelRun r3 = seq.runner->conv(KernelKind::kConvSparseSw, g,
                                        test::test_requant(), input, nullptr,
                                        &packed, bias);
  EXPECT_GE(r2.result.wall_cycles, r3.result.wall_cycles);
}

}  // namespace
}  // namespace decimate
