// Compiler-layer tests: pattern recognition, sparsity-aware tiling, DMA
// pipeline model, vector-op kernels vs reference, and small end-to-end
// graphs (with ISS verification of single-tile layers).

#include <gtest/gtest.h>

#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "kernels/vecops.hpp"
#include "nn/prune.hpp"
#include "nn/ref_ops.hpp"
#include "testutil.hpp"

namespace decimate {
namespace {

Node conv_node(const ConvGeom& g, Tensor8 weights, Rng& rng) {
  Node n;
  n.op = OpType::kConv2d;
  n.name = "conv";
  n.inputs = {0};
  n.conv = g;
  n.weights = std::move(weights);
  n.bias = test::random_bias(g.k, rng);
  n.rq = test::test_requant();
  n.out_shape = {g.oy(), g.ox(), g.k};
  return n;
}

TEST(Pattern, RecognizesSparsityAndFallsBackDense) {
  Rng rng(3);
  const ConvGeom g{.ix = 8, .iy = 8, .c = 32, .k = 8, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  CompileOptions opt;
  // dense weights -> dense kernel (1x2 since K%4==0... K=8 is %4, so 4x2)
  Node dense = conv_node(g, test::random_weights(g.k, g.fsz(), rng), rng);
  EXPECT_EQ(select_kernel(dense, opt).kind, KernelKind::kConvDense4x2);
  EXPECT_EQ(select_kernel(dense, opt).m, 0);
  opt.pulpnn_dense = false;
  EXPECT_EQ(select_kernel(dense, opt).kind, KernelKind::kConvDense1x2);
  // sparse weights -> SW sparse kernel; ISA when enabled
  Node sparse =
      conv_node(g, test::random_sparse_weights(g.k, g.fsz(), 8, rng), rng);
  opt.pulpnn_dense = true;
  EXPECT_EQ(select_kernel(sparse, opt).kind, KernelKind::kConvSparseSw);
  EXPECT_EQ(select_kernel(sparse, opt).m, 8);
  opt.enable_isa = true;
  EXPECT_EQ(select_kernel(sparse, opt).kind, KernelKind::kConvSparseIsa);
  // sparsity recognition disabled -> dense kernel even on sparse weights
  opt.enable_sparse = false;
  EXPECT_EQ(select_kernel(sparse, opt).kind, KernelKind::kConvDense4x2);
}

TEST(Tiling, BitsPerDenseWeightMatchPaper) {
  // Sec. 4.4: 1:4 with duplicated offsets = 12 bits per NZ = 3 bits per
  // dense-equivalent weight; SW 1:4 = 2.5 bits; dense = 8 bits.
  const int cols = 1024;
  EXPECT_NEAR(bits_per_dense_weight({KernelKind::kConvDense1x2, 0}, cols), 8.0,
              0.05);
  EXPECT_NEAR(bits_per_dense_weight({KernelKind::kConvSparseSw, 4}, cols), 2.5,
              0.1);
  EXPECT_NEAR(bits_per_dense_weight({KernelKind::kConvSparseIsa, 4}, cols),
              3.0, 0.1);
  EXPECT_NEAR(bits_per_dense_weight({KernelKind::kConvSparseSw, 8}, cols), 1.5,
              0.1);
  EXPECT_NEAR(bits_per_dense_weight({KernelKind::kConvSparseIsa, 8}, cols),
              2.0, 0.1);
  EXPECT_NEAR(bits_per_dense_weight({KernelKind::kConvSparseSw, 16}, cols),
              0.75, 0.1);
  EXPECT_NEAR(bits_per_dense_weight({KernelKind::kConvSparseIsa, 16}, cols),
              1.0, 0.1);
}

TEST(Tiling, SparseLayersGetLargerKTiles) {
  // Same geometry, smaller weights per channel -> at least as large K tile.
  const ConvGeom g{.ix = 8, .iy = 8, .c = 256, .k = 256, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  const int64_t budget = 120 * 1024;
  const auto dense = plan_conv_tiles(g, {KernelKind::kConvDense1x2, 0}, 8,
                                     budget);
  const auto sparse = plan_conv_tiles(g, {KernelKind::kConvSparseIsa, 16}, 8,
                                      budget);
  EXPECT_GE(sparse.k_t, dense.k_t);
  EXPECT_LE(sparse.l1_bytes, budget);
  EXPECT_LE(dense.l1_bytes, budget);
}

TEST(Tiling, PlansCoverAndFit) {
  for (const auto& g :
       {ConvGeom{.ix = 32, .iy = 32, .c = 64, .k = 64, .fx = 3, .fy = 3,
                 .stride = 1, .pad = 1},
        ConvGeom{.ix = 224, .iy = 224, .c = 4, .k = 384, .fx = 16, .fy = 16,
                 .stride = 16, .pad = 0},
        ConvGeom{.ix = 8, .iy = 8, .c = 512, .k = 512, .fx = 1, .fy = 1,
                 .stride = 2, .pad = 0}}) {
    const auto plan =
        plan_conv_tiles(g, {KernelKind::kConvDense4x2, 0}, 8, 120 * 1024);
    EXPECT_GE(plan.oy_t, 1);
    EXPECT_GE(plan.k_t, 4);
    EXPECT_EQ(plan.k_t % 4, 0);
    EXPECT_LE(plan.l1_bytes, 120 * 1024);
  }
  const FcGeom fg{.tokens = 196, .c = 1536, .k = 384};
  const auto fplan =
      plan_fc_tiles(fg, {KernelKind::kFcSparseIsa, 8}, 8, 120 * 1024);
  EXPECT_GE(fplan.tok_t, 1);
  EXPECT_EQ(fplan.k_t % 2, 0);
}

// --- vector kernels vs reference -------------------------------------------

TEST(VecKernels, ReluMatchesReference) {
  test::TestRig rig;
  Rng rng(1);
  const Tensor8 x = Tensor8::random({8, 8, 16}, rng);
  EXPECT_TRUE(run_relu(*rig.cluster, x).output == relu_s8(x));
}

TEST(VecKernels, AddMatchesReference) {
  test::TestRig rig;
  Rng rng(2);
  const Tensor8 a = Tensor8::random({1000}, rng);
  const Tensor8 b = Tensor8::random({1000}, rng);
  const Requant ra{3, 2}, rb{5, 3};
  EXPECT_TRUE(run_add(*rig.cluster, a, ra, b, rb).output ==
              add_s8(a, ra, b, rb));
}

TEST(VecKernels, LutMatchesReference) {
  test::TestRig rig;
  Rng rng(3);
  const Tensor8 x = Tensor8::random({777}, rng);
  const auto lut = build_gelu_lut(0.05f, 0.05f);
  EXPECT_TRUE(run_lut(*rig.cluster, x, lut).output == lut_s8(x, lut));
}

TEST(VecKernels, PoolsMatchReference) {
  test::TestRig rig;
  Rng rng(4);
  const Tensor8 x = Tensor8::random({8, 8, 32}, rng);
  EXPECT_TRUE(run_maxpool2x2(*rig.cluster, x).output == maxpool2x2_s8(x));
  const Requant rq{1, 6};
  EXPECT_TRUE(run_avgpool(*rig.cluster, x, rq).output ==
              global_avgpool_s8(x, rq));
}

TEST(VecKernels, SoftmaxMatchesReference) {
  test::TestRig rig;
  Rng rng(5);
  const Tensor8 x = Tensor8::random({12, 100}, rng);
  const auto lut = build_exp_lut(0.125f);
  EXPECT_TRUE(run_softmax(*rig.cluster, x, lut).output == softmax_s8(x, lut));
}

TEST(VecKernels, LayernormMatchesReference) {
  test::TestRig rig;
  Rng rng(6);
  const Tensor8 x = Tensor8::random({10, 64}, rng);
  Tensor8 gamma({64}), beta({64});
  for (int i = 0; i < 64; ++i) {
    gamma[i] = static_cast<int8_t>(rng.uniform_int(40, 90));
    beta[i] = static_cast<int8_t>(rng.uniform_int(-20, 20));
  }
  EXPECT_TRUE(run_layernorm(*rig.cluster, x, gamma, beta).output ==
              layernorm_s8(x, gamma, beta));
}

TEST(VecKernels, SingleRowAndOddSizes) {
  test::TestRig rig;
  Rng rng(7);
  const Tensor8 x = Tensor8::random({1, 13}, rng);
  const auto lut = build_exp_lut(0.125f);
  EXPECT_TRUE(run_softmax(*rig.cluster, x, lut).output == softmax_s8(x, lut));
  const Tensor8 y = Tensor8::random({3}, rng);
  EXPECT_TRUE(run_lut(*rig.cluster, y, build_gelu_lut(0.1f, 0.1f)).output ==
              lut_s8(y, build_gelu_lut(0.1f, 0.1f)));
}

// --- end-to-end small graphs -------------------------------------------------

Graph tiny_cnn(int sparsity_m, Rng& rng) {
  Graph g({8, 8, 16});
  const ConvGeom c1{.ix = 8, .iy = 8, .c = 16, .k = 32, .fx = 3, .fy = 3,
                    .stride = 1, .pad = 1};
  Node n1;
  n1.op = OpType::kConv2d;
  n1.name = "c1";
  n1.inputs = {0};
  n1.conv = c1;
  n1.weights = sparsity_m
                   ? test::random_sparse_weights(32, c1.fsz(), sparsity_m, rng)
                   : test::random_weights(32, c1.fsz(), rng);
  n1.bias = test::random_bias(32, rng);
  n1.rq = calibrate_requant(c1.fsz());
  n1.out_shape = {8, 8, 32};
  const int id1 = g.add(std::move(n1));
  Node r;
  r.op = OpType::kRelu;
  r.name = "relu";
  r.inputs = {id1};
  r.out_shape = {8, 8, 32};
  const int id2 = g.add(std::move(r));
  Node flat;
  flat.op = OpType::kReshape;
  flat.name = "flat";
  flat.inputs = {id2};
  flat.out_shape = {1, 8 * 8 * 32};
  const int id3 = g.add(std::move(flat));
  Node fc;
  fc.op = OpType::kFc;
  fc.name = "head";
  fc.inputs = {id3};
  fc.fc = FcGeom{.tokens = 1, .c = 2048, .k = 10};
  fc.weights = test::random_weights(10, 2048, rng);
  fc.bias = test::random_bias(10, rng);
  fc.rq = calibrate_requant(2048);
  fc.out_shape = {1, 10};
  g.add(std::move(fc));
  return g;
}

TEST(Executor, TinyCnnRunsAndVerifiesOnIss) {
  Rng rng(42);
  const Graph g = tiny_cnn(0, rng);
  const Tensor8 input = Tensor8::random({8, 8, 16}, rng);
  ExecutionEngine engine;
  engine.set_verify_with_sim(true);  // replay single-tile layers on the ISS
  const NetworkRun run = engine.run(Compiler().compile(g), input);
  EXPECT_EQ(run.output.shape(), (std::vector<int>{1, 10}));
  EXPECT_GT(run.total_cycles, 0u);
  EXPECT_EQ(run.layers.size(), 4u);
  EXPECT_GT(run.total_macs, 0);
}

TEST(Executor, SparseFasterThanDenseOnTinyCnnAt16) {
  Rng rng(43);
  const Tensor8 input = Tensor8::random({8, 8, 16}, rng);
  CompileOptions opt;
  ExecutionEngine engine;
  const NetworkRun dense =
      engine.run(Compiler(opt).compile(tiny_cnn(0, rng)), input);
  opt.enable_isa = true;
  Rng rng3(44);
  const NetworkRun sparse =
      engine.run(Compiler(opt).compile(tiny_cnn(16, rng3)), input);
  EXPECT_LT(sparse.layers[0].total_cycles, dense.layers[0].total_cycles);
  EXPECT_LT(sparse.layers[0].weight_bytes, dense.layers[0].weight_bytes);
}

TEST(Executor, DeterministicCyclesAcrossRuns) {
  Rng rng(7);
  const Graph g = tiny_cnn(8, rng);
  const Tensor8 input = Tensor8::random({8, 8, 16}, rng);
  ExecutionEngine engine;
  const auto r1 = engine.run(Compiler().compile(g), input);
  const auto r2 = engine.run(Compiler().compile(g), input);
  EXPECT_EQ(r1.total_cycles, r2.total_cycles);
  EXPECT_TRUE(r1.output == r2.output);
}

TEST(Executor, InterleavedWeightsReduceDmaCycles) {
  Rng rng(8);
  const Graph g = tiny_cnn(8, rng);
  const Tensor8 input = Tensor8::random({8, 8, 16}, rng);
  CompileOptions opt;
  ExecutionEngine engine;
  const auto r1 = engine.run(Compiler(opt).compile(g), input);
  opt.interleaved_weights = false;
  const auto r2 = engine.run(Compiler(opt).compile(g), input);
  EXPECT_LE(r1.layers[0].dma_cycles, r2.layers[0].dma_cycles);
  EXPECT_TRUE(r1.output == r2.output);
}

TEST(Executor, WeightRegionSelection) {
  EXPECT_EQ(Compiler::weight_region(100 * 1024), MemRegion::kL2);
  EXPECT_EQ(Compiler::weight_region(10 * 1024 * 1024), MemRegion::kL3);
}

}  // namespace
}  // namespace decimate
