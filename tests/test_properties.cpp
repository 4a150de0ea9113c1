// Property-style parameterized sweeps:
//  - vector kernels vs reference over many geometries
//  - pruning invariants (idempotence, NZ counts, magnitude preservation)
//  - tiling plans (fit, coverage, grain alignment) over random geometries
//  - executor ISS-verification across sparsity/kernel configurations

#include <gtest/gtest.h>

#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "kernels/vecops.hpp"
#include "nn/ref_ops.hpp"
#include "testutil.hpp"

namespace decimate {
namespace {

// ---------------------------------------------------------------- vec ops --

class SoftmaxLayernormSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SoftmaxLayernormSweep, MatchReference) {
  const auto [t, l] = GetParam();
  Rng rng(static_cast<uint64_t>(t * 1000 + l));
  test::TestRig rig;
  const Tensor8 x = Tensor8::random({t, l}, rng);
  const auto exp_lut = build_exp_lut(0.125f);
  EXPECT_TRUE(run_softmax(*rig.cluster, x, exp_lut).output ==
              softmax_s8(x, exp_lut))
      << "softmax t=" << t << " l=" << l;
  Tensor8 gamma({l}), beta({l});
  for (int i = 0; i < l; ++i) {
    gamma[i] = static_cast<int8_t>(rng.uniform_int(30, 100));
    beta[i] = static_cast<int8_t>(rng.uniform_int(-30, 30));
  }
  EXPECT_TRUE(run_layernorm(*rig.cluster, x, gamma, beta).output ==
              layernorm_s8(x, gamma, beta))
      << "layernorm t=" << t << " l=" << l;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SoftmaxLayernormSweep,
    ::testing::Values(std::pair{1, 4}, std::pair{1, 197}, std::pair{3, 17},
                      std::pair{8, 64}, std::pair{16, 196}, std::pair{7, 33},
                      std::pair{2, 1536}, std::pair{196, 196}));

class ElementwiseSweep : public ::testing::TestWithParam<int> {};

TEST_P(ElementwiseSweep, ReluAddLutMatchReference) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  test::TestRig rig;
  const Tensor8 a = Tensor8::random({n}, rng);
  const Tensor8 b = Tensor8::random({n}, rng);
  const Requant ra{rng.uniform_int(1, 7), rng.uniform_int(0, 4)};
  const Requant rb{rng.uniform_int(1, 7), rng.uniform_int(0, 4)};
  EXPECT_TRUE(run_add(*rig.cluster, a, ra, b, rb).output ==
              add_s8(a, ra, b, rb));
  const auto lut = build_gelu_lut(0.04f, 0.04f);
  EXPECT_TRUE(run_lut(*rig.cluster, a, lut).output == lut_s8(a, lut));
  if (n % 4 == 0) {
    EXPECT_TRUE(run_relu(*rig.cluster, a).output == relu_s8(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElementwiseSweep,
                         ::testing::Values(1, 3, 4, 7, 16, 100, 1024, 4096));

class PoolSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PoolSweep, PoolsMatchReference) {
  const auto [h, w, c] = GetParam();
  Rng rng(static_cast<uint64_t>(h * 100 + w * 10 + c));
  test::TestRig rig;
  const Tensor8 x = Tensor8::random({h, w, c}, rng);
  const Requant rq{1, static_cast<int32_t>(ceil_log2(
                          static_cast<uint64_t>(h) * w))};
  EXPECT_TRUE(run_avgpool(*rig.cluster, x, rq).output ==
              global_avgpool_s8(x, rq));
  if (h % 2 == 0 && w % 2 == 0) {
    EXPECT_TRUE(run_maxpool2x2(*rig.cluster, x).output == maxpool2x2_s8(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PoolSweep,
                         ::testing::Values(std::tuple{2, 2, 4},
                                           std::tuple{4, 4, 512},
                                           std::tuple{8, 8, 64},
                                           std::tuple{3, 5, 16},
                                           std::tuple{14, 14, 384},
                                           std::tuple{32, 32, 8}));

// ---------------------------------------------------------------- pruning --

class PruneProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PruneProperty, InvariantsHold) {
  const auto [m, cols] = GetParam();
  if (cols % m != 0) GTEST_SKIP();
  Rng rng(static_cast<uint64_t>(m * cols));
  Tensor8 w = Tensor8::random({16, cols}, rng);
  Tensor8 orig = w;
  nm_prune(w.flat(), 16, cols, 1, m);
  // 1) pattern holds
  EXPECT_TRUE(is_nm_sparse(w.flat(), 16, cols, 1, m));
  // 2) idempotent
  Tensor8 again = w;
  nm_prune(again.flat(), 16, cols, 1, m);
  EXPECT_TRUE(again == w);
  // 3) survivors are unchanged values and block maxima by magnitude
  for (int r = 0; r < 16; ++r) {
    for (int b = 0; b < cols / m; ++b) {
      int nz = 0;
      int max_abs = 0;
      for (int i = 0; i < m; ++i) {
        max_abs = std::max<int>(max_abs,
                                std::abs(orig.at({r, b * m + i})));
      }
      for (int i = 0; i < m; ++i) {
        const int8_t v = w.at({r, b * m + i});
        if (v != 0) {
          ++nz;
          EXPECT_EQ(v, orig.at({r, b * m + i}));
          EXPECT_EQ(std::abs(static_cast<int>(v)), max_abs);
        }
      }
      EXPECT_LE(nz, 1);
    }
  }
  // 4) sparsity is at least (m-1)/m
  EXPECT_GE(sparsity(w.flat()), 1.0 - 1.0 / m - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PruneProperty,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(16, 32, 48, 144, 576)));

// ----------------------------------------------------------------- tiling --

class TilingProperty : public ::testing::TestWithParam<int> {};

TEST_P(TilingProperty, RandomConvPlansFitAndCover) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 8; ++trial) {
    ConvGeom g;
    // realistic MCU layer sizes (the tiler does not tile OX; a 3x3 layer
    // with C=512 and IX=64 would need x-tiling and throws instead)
    g.c = 4 * rng.uniform_int(1, 64);
    g.k = 4 * rng.uniform_int(1, 128);
    g.fx = g.fy = (rng.uniform_int(0, 1) != 0) ? 3 : 1;
    g.stride = rng.uniform_int(1, 2);
    g.pad = g.fx / 2;
    g.ix = g.iy = 2 * rng.uniform_int(2, 16) * g.stride;
    if (g.ox() % 2 != 0 || g.ox() < 2 || g.oy() < 1) continue;
    for (auto choice :
         {KernelChoice{KernelKind::kConvDense4x2, 0},
          KernelChoice{KernelKind::kConvSparseIsa, 16}}) {
      if (choice.sparse() && g.fsz() % choice.m != 0) continue;
      const auto plan = plan_conv_tiles(g, choice, 8, 120 * 1024);
      EXPECT_LE(plan.l1_bytes, 120 * 1024);
      EXPECT_GE(plan.oy_t, 1);
      EXPECT_GE(plan.k_t, 1);
      if (choice.kind == KernelKind::kConvDense4x2) {
        EXPECT_EQ(plan.k_t % 4, 0);
      }
      // tiles cover the layer
      EXPECT_GE(plan.oy_t * plan.n_oy, g.oy());
      EXPECT_GE(plan.k_t * plan.n_k, g.k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TilingProperty, ::testing::Range(1, 6));

TEST(TilingProperty, OversizedLayerThrowsCleanly) {
  // 3x3 with huge C and wide input: the per-core im2col buffers plus one
  // input row exceed L1 and no OX tiling exists -> a diagnosable error.
  const ConvGeom g{.ix = 64, .iy = 64, .c = 512, .k = 32, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  EXPECT_THROW(
      plan_conv_tiles(g, {KernelKind::kConvDense4x2, 0}, 8, 120 * 1024),
      Error);
}

// --------------------------------------------------------------- executor --

struct E2eCase {
  int m;
  bool isa;
};

class ExecutorVerifySweep : public ::testing::TestWithParam<E2eCase> {};

TEST_P(ExecutorVerifySweep, SingleTileLayersReplayOnIss) {
  const auto [m, isa] = GetParam();
  Rng rng(static_cast<uint64_t>(m) * 31 + isa);
  Graph g({8, 8, 32});
  const ConvGeom cg{.ix = 8, .iy = 8, .c = 32, .k = 16, .fx = 3, .fy = 3,
                    .stride = 1, .pad = 1};
  Node conv;
  conv.op = OpType::kConv2d;
  conv.name = "conv";
  conv.inputs = {0};
  conv.conv = cg;
  conv.weights = m ? test::random_sparse_weights(16, cg.fsz(), m, rng)
                   : test::random_weights(16, cg.fsz(), rng);
  conv.bias = test::random_bias(16, rng);
  conv.rq = calibrate_requant(cg.fsz());
  conv.out_shape = {8, 8, 16};
  const int c1 = g.add(std::move(conv));
  Node fc;
  fc.op = OpType::kReshape;
  fc.name = "flat";
  fc.inputs = {c1};
  fc.out_shape = {1, 8 * 8 * 16};
  const int f = g.add(std::move(fc));
  Node head;
  head.op = OpType::kFc;
  head.name = "head";
  head.inputs = {f};
  head.fc = FcGeom{.tokens = 1, .c = 1024, .k = 16};
  head.weights = m ? test::random_sparse_weights(16, 1024, m, rng)
                   : test::random_weights(16, 1024, rng);
  head.bias = test::random_bias(16, rng);
  head.rq = calibrate_requant(1024);
  head.out_shape = {1, 16};
  g.add(std::move(head));

  const Tensor8 input = Tensor8::random({8, 8, 32}, rng);
  CompileOptions opt;
  opt.enable_isa = isa;
  ExecutionEngine engine;
  engine.set_verify_with_sim(true);  // throws on ISS/reference divergence
  const NetworkRun run = engine.run(Compiler(opt).compile(g), input);
  EXPECT_GT(run.total_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ExecutorVerifySweep,
    ::testing::Values(E2eCase{0, false}, E2eCase{4, false}, E2eCase{4, true},
                      E2eCase{8, false}, E2eCase{8, true}, E2eCase{16, false},
                      E2eCase{16, true}));

// ------------------------------------------------------------ requant -----

class RequantProperty : public ::testing::TestWithParam<int> {};

TEST_P(RequantProperty, ApproximatesScaleWithoutOverflow) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const int fan_in = rng.uniform_int(16, 4096);
    const double scale = 1.0 / rng.uniform_int(50, 5000);
    const int64_t max_acc = static_cast<int64_t>(fan_in) * 127 * 127;
    const Requant rq = make_requant(scale, max_acc);
    EXPECT_LE(static_cast<int64_t>(rq.mult) * max_acc, (1ll << 31) - 1);
    const int32_t acc = rng.uniform_int(-100000, 100000);
    const double ideal = acc * scale;
    if (std::abs(ideal) < 120) {
      EXPECT_NEAR(rq.apply(acc), ideal, std::max(2.0, std::abs(ideal) * 0.1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequantProperty, ::testing::Range(1, 5));

}  // namespace
}  // namespace decimate
