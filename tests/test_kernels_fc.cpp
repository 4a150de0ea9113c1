// Bit-exactness of the FC kernel programs vs the reference, the offsets
// interleaving of Fig. 6, and the FC instruction-count analysis (Sec. 4.2).

#include <gtest/gtest.h>

#include "nn/ref_ops.hpp"
#include "testutil.hpp"

namespace decimate {
namespace {

using test::TestRig;

struct FcCase {
  KernelKind kind;
  int m;
  FcGeom g;
};

std::string fc_case_name(const ::testing::TestParamInfo<FcCase>& info) {
  const auto& c = info.param;
  std::string n = kernel_kind_name(c.kind);
  for (auto& ch : n) {
    if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return n + "_m" + std::to_string(c.m) + "_t" + std::to_string(c.g.tokens) +
         "_c" + std::to_string(c.g.c) + "_k" + std::to_string(c.g.k) + "_" +
         std::to_string(info.index);
}

class FcKernelTest : public ::testing::TestWithParam<FcCase> {};

TEST_P(FcKernelTest, MatchesReference) {
  const auto& c = GetParam();
  Rng rng(0xFC + static_cast<uint64_t>(c.g.c) * 17 + c.m + c.g.tokens);
  TestRig rig;
  const Tensor8 input = Tensor8::random({c.g.tokens, c.g.c}, rng);
  const Tensor32 bias = test::random_bias(c.g.k, rng);
  const Requant rq = test::test_requant();

  Tensor8 w = (c.m == 0) ? test::random_weights(c.g.k, c.g.c, rng)
                         : test::random_sparse_weights(c.g.k, c.g.c, c.m, rng);
  const Tensor8 expected = fc_s8(input, w, bias, rq);

  KernelRun run;
  if (kernel_is_sparse(c.kind)) {
    const NmPacked packed =
        nm_pack(w.flat(), c.g.k, c.g.c, c.m, TileRunner::layout_for(c.kind));
    run = rig.runner->fc(c.kind, c.g, rq, input, nullptr, &packed, bias);
  } else {
    run = rig.runner->fc(c.kind, c.g, rq, input, &w, nullptr, bias);
  }
  ASSERT_EQ(run.output.shape(), expected.shape());
  for (int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(run.output[i], expected[i])
        << "first mismatch at flat index " << i << " for "
        << kernel_kind_name(c.kind) << " m=" << c.m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dense, FcKernelTest,
    ::testing::Values(
        FcCase{KernelKind::kFcDense, 0, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcDense, 0, FcGeom{.tokens = 1, .c = 256, .k = 10}},
        FcCase{KernelKind::kFcDense, 0, FcGeom{.tokens = 5, .c = 32, .k = 8}},
        FcCase{KernelKind::kFcDense, 0, FcGeom{.tokens = 16, .c = 64, .k = 32}},
        FcCase{KernelKind::kFcDense, 0,
               FcGeom{.tokens = 3, .c = 128, .k = 100}}),
    fc_case_name);

INSTANTIATE_TEST_SUITE_P(
    SparseSw, FcKernelTest,
    ::testing::Values(
        FcCase{KernelKind::kFcSparseSw, 4, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcSparseSw, 8, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcSparseSw, 16, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcSparseSw, 8, FcGeom{.tokens = 1, .c = 256, .k = 9}},
        FcCase{KernelKind::kFcSparseSw, 8, FcGeom{.tokens = 7, .c = 64, .k = 13}},
        FcCase{KernelKind::kFcSparseSw, 16, FcGeom{.tokens = 16, .c = 128, .k = 24}},
        FcCase{KernelKind::kFcSparseSw, 4, FcGeom{.tokens = 2, .c = 96, .k = 6}},
        FcCase{KernelKind::kFcSparseSw, 2, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcSparseSw, 2, FcGeom{.tokens = 7, .c = 96, .k = 13}}),
    fc_case_name);

INSTANTIATE_TEST_SUITE_P(
    SparseIsa, FcKernelTest,
    ::testing::Values(
        FcCase{KernelKind::kFcSparseIsa, 4, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcSparseIsa, 8, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcSparseIsa, 16, FcGeom{.tokens = 1, .c = 64, .k = 16}},
        FcCase{KernelKind::kFcSparseIsa, 8, FcGeom{.tokens = 1, .c = 256, .k = 10}},
        FcCase{KernelKind::kFcSparseIsa, 8, FcGeom{.tokens = 7, .c = 64, .k = 14}},
        FcCase{KernelKind::kFcSparseIsa, 16, FcGeom{.tokens = 16, .c = 128, .k = 24}},
        FcCase{KernelKind::kFcSparseIsa, 4, FcGeom{.tokens = 2, .c = 96, .k = 6}},
        FcCase{KernelKind::kFcSparseIsa, 16, FcGeom{.tokens = 3, .c = 512, .k = 2}}),
    fc_case_name);

TEST(FcKernelInstrCounts, InnerLoopsMatchPaper) {
  // Sec. 4.2: dense 5; SW 16 (17 for 1:4); ISA 13 (25 per 2 iters for 1:4).
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcDense, 0)
                .region_length(kInnerBegin, kInnerEnd),
            5);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcSparseSw, 8)
                .region_length(kInnerBegin, kInnerEnd),
            16);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcSparseSw, 16)
                .region_length(kInnerBegin, kInnerEnd),
            16);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcSparseSw, 4)
                .region_length(kInnerBegin, kInnerEnd),
            17);
  // M=2 shares the M=4 body (2-bit offsets): same inner-loop length.
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcSparseSw, 2)
                .region_length(kInnerBegin, kInnerEnd),
            17);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcSparseIsa, 8)
                .region_length(kInnerBegin, kInnerEnd),
            13);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcSparseIsa, 16)
                .region_length(kInnerBegin, kInnerEnd),
            13);
  EXPECT_EQ(TileRunner::program_for(KernelKind::kFcSparseIsa, 4)
                .region_length(kInnerBegin, kInnerEnd),
            25);
}

TEST(FcKernelPeaks, DenseEquivalentMacsPerInstruction) {
  // Sec. 4.2: FC ISA reaches 0.61 dense-equivalent MACs/instr/M, i.e.
  // 2.44 / 4.88 / 9.76 at 1:4 / 1:8 / 1:16; the SW kernel reaches 0.25/M.
  const FcGeom g{.tokens = 8, .c = 1024, .k = 64};
  Rng rng(9);
  const Tensor8 input = Tensor8::random({g.tokens, g.c}, rng);
  const Tensor32 bias = test::random_bias(g.k, rng);

  auto measure = [&](KernelKind kind, int m) {
    TestRig rig;
    Tensor8 w = test::random_sparse_weights(g.k, g.c, m, rng);
    const NmPacked packed =
        nm_pack(w.flat(), g.k, g.c, m, TileRunner::layout_for(kind));
    const KernelRun run = rig.runner->fc(kind, g, test::test_requant(),
                                         input, nullptr, &packed, bias);
    return static_cast<double>(run.dense_macs) /
           static_cast<double>(run.result.total_instructions);
  };
  EXPECT_NEAR(measure(KernelKind::kFcSparseSw, 8), 2.0, 0.25);
  EXPECT_NEAR(measure(KernelKind::kFcSparseSw, 16), 4.0, 0.5);
  EXPECT_NEAR(measure(KernelKind::kFcSparseIsa, 8), 4.88, 0.6);
  EXPECT_NEAR(measure(KernelKind::kFcSparseIsa, 16), 9.76, 1.2);
}

TEST(FcKernel, SparseBeatsDenseAtHighSparsityOnCompute) {
  const FcGeom g{.tokens = 4, .c = 512, .k = 32};
  Rng rng(10);
  const Tensor8 input = Tensor8::random({g.tokens, g.c}, rng);
  const Tensor32 bias = test::random_bias(g.k, rng);
  TestRig rig;
  Tensor8 dense_w = test::random_weights(g.k, g.c, rng);
  const KernelRun dense = rig.runner->fc(
      KernelKind::kFcDense, g, test::test_requant(), input, &dense_w, nullptr,
      bias);
  Tensor8 sparse_w = test::random_sparse_weights(g.k, g.c, 16, rng);
  const NmPacked packed =
      nm_pack(sparse_w.flat(), g.k, g.c, 16, NmLayout::kFcIsaInterleaved);
  TestRig rig2;
  const KernelRun sparse = rig2.runner->fc(
      KernelKind::kFcSparseIsa, g, test::test_requant(), input, nullptr,
      &packed, bias);
  EXPECT_LT(sparse.result.wall_cycles, dense.result.wall_cycles);
  // paper's shape: > 2x at 1:16 on the compute-only path
  EXPECT_GT(static_cast<double>(dense.result.wall_cycles) /
                static_cast<double>(sparse.result.wall_cycles),
            2.0);
}

TEST(FcKernel, OddKRejectedForPairKernels) {
  TestRig rig;
  Rng rng(2);
  const FcGeom g{.tokens = 1, .c = 32, .k = 7};
  const Tensor8 input = Tensor8::random({1, 32}, rng);
  Tensor8 w = test::random_weights(7, 32, rng);
  Tensor32 bias({7}, 0);
  EXPECT_THROW(rig.runner->fc(KernelKind::kFcDense, g, test::test_requant(),
                              input, &w, nullptr, bias),
               Error);
  // ...but fine for the SW sparse kernel (no channel pairing)
  Tensor8 ws = test::random_sparse_weights(7, 32, 8, rng);
  const NmPacked packed = nm_pack(ws.flat(), 7, 32, 8, NmLayout::kSw);
  const Tensor8 expected = fc_s8(input, ws, bias, test::test_requant());
  const KernelRun run = rig.runner->fc(
      KernelKind::kFcSparseSw, g, test::test_requant(), input, nullptr,
      &packed, bias);
  EXPECT_TRUE(run.output == expected);
}

}  // namespace
}  // namespace decimate
