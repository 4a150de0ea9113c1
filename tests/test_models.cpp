// Model-builder tests: graph structure, parameter counts vs the paper,
// sparsity placement, and a scaled-down end-to-end execution.

#include <gtest/gtest.h>

#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "nn/prune.hpp"

namespace decimate {
namespace {

TEST(Resnet18, ParameterCountMatchesPaper) {
  // Paper Table 2: 11.22 MB dense. (Ours counts the channel-padded stem.)
  const Graph g = build_resnet18({});
  int64_t params = 0;
  for (const auto& n : g.nodes()) {
    if (n.op == OpType::kConv2d || n.op == OpType::kFc) {
      params += n.weights.numel() + 4 * n.bias.numel();
    }
  }
  EXPECT_NEAR(static_cast<double>(params) / 1e6, 11.22, 0.25);
}

TEST(Resnet18, MacCountMatchesPaper) {
  // Dense 1x2 row of Table 2: 66.63 Mcyc at 8.33 MAC/cyc ~ 555 MMAC.
  const Graph g = build_resnet18({});
  EXPECT_NEAR(static_cast<double>(g.total_macs()) / 1e6, 555.0, 30.0);
}

TEST(Resnet18, SparsityPlacementFollowsPaper) {
  const Graph g = build_resnet18({.sparsity_m = 8});
  int sparse_3x3 = 0, dense_pw = 0, dense_3x3 = 0;
  for (const auto& n : g.nodes()) {
    if (n.op != OpType::kConv2d) continue;
    const bool is_sparse =
        detect_one_to_m(n.weights.flat(), n.conv.k, n.conv.fsz()) == 8;
    if (n.conv.fx == 3 && n.name != "stem") {
      EXPECT_TRUE(is_sparse) << n.name;
      ++sparse_3x3;
    } else if (n.conv.fx == 1) {
      EXPECT_FALSE(is_sparse) << n.name;
      ++dense_pw;
    } else {
      ++dense_3x3;  // stem
    }
  }
  EXPECT_EQ(sparse_3x3, 16);  // 8 blocks x 2 convs
  EXPECT_EQ(dense_pw, 3);     // 3 downsample convs
  EXPECT_EQ(dense_3x3, 1);    // stem
}

TEST(Resnet18, SparseWeightBytesShrinkAsInPaper) {
  // Table 2 memory column: 11.22 -> ~2.3 MB at 1:8 (SW layout).
  CompileOptions opt;
  int64_t dense_bytes_ = 0, sparse_bytes = 0;
  {
    const Graph g = build_resnet18({});
    for (const auto& n : g.nodes()) {
      if (n.op == OpType::kConv2d || n.op == OpType::kFc) {
        dense_bytes_ += deployed_weight_bytes(n, select_kernel(n, opt));
      }
    }
  }
  {
    const Graph g = build_resnet18({.sparsity_m = 8});
    for (const auto& n : g.nodes()) {
      if (n.op == OpType::kConv2d || n.op == OpType::kFc) {
        sparse_bytes += deployed_weight_bytes(n, select_kernel(n, opt));
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(dense_bytes_) / 1e6, 11.22, 0.25);
  EXPECT_NEAR(static_cast<double>(sparse_bytes) / 1e6, 2.3, 0.25);
}

TEST(Vit, ParameterAndMacCountsMatchPaper) {
  // Paper Table 2: 21.59 MB dense; dense cycles/MAC imply ~4.5 GMAC.
  const Graph g = build_vit({});
  int64_t params = 0;
  for (const auto& n : g.nodes()) {
    if (n.op == OpType::kConv2d || n.op == OpType::kFc) {
      params += n.weights.numel() + 4 * n.bias.numel();
    }
  }
  EXPECT_NEAR(static_cast<double>(params) / 1e6, 21.6, 0.7);
  EXPECT_NEAR(static_cast<double>(g.total_macs()) / 1e9, 4.53, 0.25);
}

TEST(Vit, FfnShareMatchesPaper) {
  // Sec. 5.3: sparsified FC layers are ~65% of parameters, ~60% of MACs.
  const Graph g = build_vit({});
  int64_t ffn_params = 0, all_params = 0, ffn_macs = 0;
  for (const auto& n : g.nodes()) {
    if (n.op == OpType::kConv2d || n.op == OpType::kFc) {
      all_params += n.weights.numel();
      if (n.name.find(".ffn.") != std::string::npos) {
        ffn_params += n.weights.numel();
        ffn_macs += n.fc.macs();
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(ffn_params) / all_params, 0.65, 0.03);
  EXPECT_NEAR(static_cast<double>(ffn_macs) / g.total_macs(), 0.60, 0.04);
}

TEST(Vit, SparsityOnlyOnFfn) {
  const Graph g = build_vit({.sparsity_m = 16});
  for (const auto& n : g.nodes()) {
    if (n.op != OpType::kFc) continue;
    const bool is_sparse =
        detect_one_to_m(n.weights.flat(), n.fc.k, n.fc.c) != 0;
    if (n.name.find(".ffn.") != std::string::npos) {
      EXPECT_TRUE(is_sparse) << n.name;
    } else {
      EXPECT_FALSE(is_sparse) << n.name;
    }
  }
}

TEST(Vit, ScaledDownEndToEndRuns) {
  // A 64x64 ViT-descendant small enough to execute fully in a test.
  VitOptions opt;
  opt.image_hw = 64;
  opt.dim = 64;
  opt.depth = 2;
  opt.heads = 2;
  opt.mlp = 256;
  opt.sparsity_m = 8;
  const Graph g = build_vit(opt);
  Rng rng(5);
  const Tensor8 input = Tensor8::random({64, 64, 4}, rng);
  CompileOptions copt;
  copt.enable_isa = true;
  const NetworkRun run =
      ExecutionEngine().run(Compiler(copt).compile(g), input);
  EXPECT_EQ(run.output.shape(), (std::vector<int>{1, 10}));
  EXPECT_GT(run.total_cycles, 0u);
  EXPECT_GT(run.macs_per_cycle(), 0.1);
}

TEST(Resnet18, ScaledDownEndToEndSparseBeatsDense) {
  Resnet18Options ropt;
  ropt.input_hw = 16;  // scaled-down spatial size for test speed
  Rng rng(6);
  const Tensor8 input = Tensor8::random({16, 16, 4}, rng);
  CompileOptions copt;
  ExecutionEngine engine;
  const auto dense =
      engine.run(Compiler(copt).compile(build_resnet18(ropt)), input);
  ropt.sparsity_m = 16;
  copt.enable_isa = true;
  const auto sparse =
      engine.run(Compiler(copt).compile(build_resnet18(ropt)), input);
  EXPECT_LT(sparse.total_cycles, dense.total_cycles);
  EXPECT_LT(sparse.weight_bytes, dense.weight_bytes);
  EXPECT_GT(static_cast<double>(dense.total_cycles) /
                static_cast<double>(sparse.total_cycles),
            1.5);
}

}  // namespace
}  // namespace decimate
