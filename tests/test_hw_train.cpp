// Tests for the hardware area/pipeline models (E8/E11) and the training
// substitute experiment (E13), plus the work splitter.

#include <gtest/gtest.h>

#include "exec/tile_runner.hpp"
#include "hw/energy.hpp"
#include "hw/xfu_area.hpp"
#include "kernels/work_split.hpp"
#include "nn/prune.hpp"
#include "train/trainer.hpp"

namespace decimate {
namespace {

TEST(XfuArea, OverheadNearFivePercent) {
  const XfuAreaModel model;
  EXPECT_GT(model.xfu_kge(), 1.5);
  EXPECT_LT(model.xfu_kge(), 4.0);
  EXPECT_NEAR(model.overhead_fraction(), 0.05, 0.01);  // paper: 5.0%
}

TEST(XfuArea, EveryBlockContributes) {
  const XfuAreaModel model;
  double sum = 0.0;
  for (const auto& b : model.blocks()) {
    EXPECT_GT(b.kge, 0.0) << b.name;
    EXPECT_FALSE(b.note.empty()) << b.name;
    sum += b.kge;
  }
  EXPECT_DOUBLE_EQ(sum, model.xfu_kge());
}

TEST(XfuPipeline, ForwardingRemovesBubbles) {
  const XfuPipelineModel fwd{.forwarding = true};
  const XfuPipelineModel no_fwd{.forwarding = false};
  EXPECT_EQ(fwd.back_to_back_cycles(8), 8u);
  EXPECT_EQ(no_fwd.back_to_back_cycles(8), 15u);
  EXPECT_EQ(no_fwd.back_to_back_cycles(1), 1u);
  EXPECT_EQ(no_fwd.back_to_back_cycles(0), 0u);
}

TEST(WorkSplit, ConvRowChunksWhenRowsAbound) {
  const auto work = split_conv_work(/*oy=*/32, /*ox_pairs=*/4, /*k=*/64, 8);
  ASSERT_EQ(work.size(), 8u);
  int covered = 0;
  for (const auto& w : work) {
    EXPECT_EQ(w.xp_s, 0);
    EXPECT_EQ(w.xp_e, 4);
    EXPECT_EQ(w.k_s, 0);
    EXPECT_EQ(w.k_e, 64);
    covered += w.oy_e - w.oy_s;
  }
  EXPECT_EQ(covered, 32);
}

TEST(WorkSplit, ConvStripsWhenRowsScarce) {
  // 4 rows over 8 cores: each row split into two pair-strips.
  const auto work = split_conv_work(4, 2, 16, 8);
  int cells = 0;
  for (const auto& w : work) {
    if (w.empty()) continue;
    cells += (w.oy_e - w.oy_s) * (w.xp_e - w.xp_s);
  }
  EXPECT_EQ(cells, 4 * 2);  // full coverage, disjoint by construction
  // every core has at most one row
  for (const auto& w : work) {
    EXPECT_LE(w.oy_e - w.oy_s, 1);
  }
}

TEST(WorkSplit, FcGrainAlignment) {
  const auto work = split_fc_work(/*tokens=*/1, /*k=*/100, 8, /*grain=*/2);
  int covered = 0;
  for (const auto& w : work) {
    EXPECT_EQ(w.k_s % 2, 0);
    EXPECT_EQ((w.k_e - w.k_s) % 2, 0);
    covered += w.k_e - w.k_s;
  }
  EXPECT_EQ(covered, 100);
}

TEST(WorkSplit, FcTokenChunks) {
  const auto work = split_fc_work(196, 384, 8, 2);
  int covered = 0;
  for (const auto& w : work) covered += (w.tok_e - w.tok_s);
  EXPECT_EQ(covered, 196);
}

TEST(Energy, OpClassesAreOrdered) {
  const EnergyModel em;
  EXPECT_LT(em.op_pj(Opcode::kAdd), em.op_pj(Opcode::kMul));
  EXPECT_LT(em.op_pj(Opcode::kMul), em.op_pj(Opcode::kLw));
  EXPECT_GT(em.op_pj(Opcode::kXdec), em.op_pj(Opcode::kLw));  // load+unpack
  EXPECT_GT(em.op_pj(Opcode::kDiv), em.op_pj(Opcode::kMul));
}

TEST(Energy, SparseKernelUsesLessEnergyThanDense) {
  const ConvGeom g{.ix = 8, .iy = 8, .c = 64, .k = 16, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  Rng rng(4);
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  Tensor32 bias({g.k}, 0);
  const EnergyModel em;
  Cluster c1{ClusterConfig{}};
  TileRunner l1(c1);
  Tensor8 dense_w = Tensor8::random({g.k, g.fsz()}, rng);
  const auto dense = l1.conv(KernelKind::kConvDense1x2, g, Requant{1, 8},
                             input, &dense_w, nullptr, bias);
  Cluster c2{ClusterConfig{}};
  TileRunner l2(c2);
  Tensor8 sw = Tensor8::random({g.k, g.fsz()}, rng);
  nm_prune(sw.flat(), g.k, g.fsz(), 1, 16);
  const NmPacked packed =
      nm_pack(sw.flat(), g.k, g.fsz(), 16, NmLayout::kConvIsaDup);
  const auto sparse = l2.conv(KernelKind::kConvSparseIsa, g, Requant{1, 8},
                              input, nullptr, &packed, bias);
  const double e_dense = em.kernel_energy(dense.result).total_nj();
  const double e_sparse = em.kernel_energy(sparse.result).total_nj();
  EXPECT_LT(e_sparse, e_dense / 2.0);  // 1:16 skips ~94% of the MACs
  // DMA side: sparse weights move far fewer bytes
  EXPECT_LT(em.dma_nj(0, nm_bytes(g.k, g.fsz(), 16, true)),
            em.dma_nj(0, dense_bytes(g.k, g.fsz())) / 4.0);
}

TEST(Train, SynthDatasetIsLearnable) {
  Rng rng(5);
  const SynthDataset train_set = SynthDataset::make(2000, 32, 10, 0.9, rng);
  const SynthDataset test_set = SynthDataset::make(300, 32, 10, 0.9, rng);
  MlpConfig cfg;
  cfg.epochs = 10;
  Mlp mlp(cfg);
  mlp.train(train_set);
  EXPECT_GT(mlp.accuracy(test_set), 0.8);  // well above 10% chance
}

TEST(Train, ProjectedSgdKeepsPattern) {
  Rng rng(6);
  const SynthDataset train_set = SynthDataset::make(500, 32, 10, 0.9, rng);
  MlpConfig cfg;
  cfg.epochs = 3;
  cfg.nm_m = 8;
  Mlp mlp(cfg);
  mlp.train(train_set);
  const Graph g = mlp.to_int8_graph(0.05f);
  // fc1 weights must still be 1:8 after training + quantization
  const Node& fc1 = g.node(1);
  EXPECT_TRUE(is_nm_sparse(fc1.weights.flat(), cfg.hidden, cfg.in, 1, 8));
}

TEST(Train, SparsityDegradesAccuracyGently) {
  Rng rng(7);
  const SynthDataset train_set = SynthDataset::make(1500, 32, 10, 2.0, rng);
  const SynthDataset test_set = SynthDataset::make(300, 32, 10, 2.0, rng);
  MlpConfig dense_cfg;
  dense_cfg.epochs = 20;
  Mlp dense(dense_cfg);
  dense.train(train_set);
  MlpConfig sparse4 = dense_cfg;
  sparse4.nm_m = 4;
  Mlp sp4(sparse4);
  sp4.train(train_set);
  MlpConfig sparse16 = dense_cfg;
  sparse16.nm_m = 16;
  Mlp sp16(sparse16);
  sp16.train(train_set);
  const double d = dense.accuracy(test_set);
  const double a4 = sp4.accuracy(test_set);
  const double a16 = sp16.accuracy(test_set);
  EXPECT_GT(a4, d - 0.08);   // 1:4 is nearly free (paper: no accuracy loss)
  EXPECT_GT(a16, d - 0.30);  // 1:16 degrades but stays far above chance
  EXPECT_GT(a16, 0.5);
}

}  // namespace
}  // namespace decimate
