// Multi-cluster sharding tests: the shard_plan() schedule (a modeled
// placement; the host runs every plan whole on ExecutionEngine) — the
// single-cluster degeneration invariant (critical path == plan total),
// critical paths that shrink with clusters, degenerate layers with fewer
// tiles than clusters (a single-tile FC included), shard-count-salted
// fingerprints and the batch-fused rejection, with every schedule passing
// verify_shard — and shard-aware compiles that change tiles, not
// numerics, on ResNet18/ViT for 1/2/4 clusters.

#include <gtest/gtest.h>

#include "compiler/fingerprint.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "nn/prune.hpp"
#include "shard/shard_planner.hpp"
#include "verify/verify.hpp"

namespace decimate {
namespace {

CompileOptions isa_options(int num_clusters = 1) {
  CompileOptions opt;
  opt.enable_isa = true;
  opt.num_clusters = num_clusters;
  return opt;
}

Graph scaled_resnet18() {
  Resnet18Options opt;
  opt.sparsity_m = 8;
  opt.input_hw = 16;
  return build_resnet18(opt);
}

Graph scaled_vit() {
  VitOptions opt;
  opt.image_hw = 64;
  opt.dim = 64;
  opt.depth = 2;
  opt.heads = 2;
  opt.mlp = 256;
  opt.sparsity_m = 8;
  return build_vit(opt);
}

/// Single-FC graph: `tokens` x `c` -> `k`, optionally 1:m pruned.
Graph single_fc(int tokens, int c, int k, int m, uint64_t seed) {
  Rng rng(seed);
  Graph g({tokens, c});
  Node n;
  n.op = OpType::kFc;
  n.name = "fc";
  n.inputs = {0};
  n.fc = FcGeom{.tokens = tokens, .c = c, .k = k};
  n.weights = Tensor8::random({k, c}, rng);
  if (m) nm_prune(n.weights.flat(), k, c, 1, m);
  n.bias = Tensor32({k}, 7);
  n.rq = calibrate_requant(c);
  n.out_shape = {tokens, k};
  g.add(std::move(n));
  return g;
}

/// Single tiny conv whose tile grid cannot reach 8 tiles: 2 output rows
/// x 1 output channel caps the grid at 2 tiles however hard the
/// shard-aware search tries.
Graph tiny_conv(uint64_t seed) {
  Rng rng(seed);
  Graph g({2, 4, 4});
  Node n;
  n.op = OpType::kConv2d;
  n.name = "conv";
  n.inputs = {0};
  n.conv = ConvGeom{.ix = 4, .iy = 2, .c = 4, .k = 1, .fx = 3, .fy = 3,
                    .stride = 1, .pad = 1};
  n.weights = Tensor8::random({1, n.conv.fsz()}, rng);
  n.bias = Tensor32({1}, 3);
  n.rq = calibrate_requant(n.conv.fsz());
  n.out_shape = {2, 4, 1};
  g.add(std::move(n));
  return g;
}

/// Shard `plan` across its clusters; the schedule must verify clean.
ShardPlan shard(const CompiledPlan& plan) {
  ShardPlan sp = shard_plan(plan);
  const VerifyReport report = verify_shard(plan, sp);
  EXPECT_TRUE(report.clean()) << report.to_string();
  return sp;
}

/// A shard-aware compile changes tiles, not numerics: the 1/2/4-cluster
/// plans of `graph` must run bit-exact with the 1-cluster plan.
void expect_shard_aware_plans_bit_exact(const Graph& graph,
                                        const std::vector<int>& in_shape,
                                        uint64_t seed) {
  Rng rng(seed);
  const Tensor8 input = Tensor8::random(in_shape, rng);
  Compiler baseline_compiler(isa_options());
  const CompiledPlan baseline_plan = baseline_compiler.compile(graph);
  ExecutionEngine engine;
  const NetworkRun baseline = engine.run(baseline_plan, input);
  const auto cache = baseline_compiler.shared_latencies();

  for (int n : {1, 2, 4}) {
    Compiler compiler(isa_options(n), cache);
    const CompiledPlan plan = compiler.compile(graph);
    EXPECT_TRUE(engine.run(plan, input).output == baseline.output)
        << "the " << n << "-cluster plan's output differs";
    EXPECT_EQ(shard(plan).num_clusters, n);
  }
}

// --- numerics ---------------------------------------------------------------

TEST(Shard, ShardAwarePlansBitExactWithSingleClusterResnet18) {
  expect_shard_aware_plans_bit_exact(scaled_resnet18(), {16, 16, 4}, 41);
}

TEST(Shard, ShardAwarePlansBitExactWithSingleClusterVit) {
  expect_shard_aware_plans_bit_exact(scaled_vit(), {64, 64, 4}, 42);
}

// --- cycle model ------------------------------------------------------------

TEST(Shard, OneClusterDegeneratesToTheUnshardedSchedule) {
  const Graph g = scaled_resnet18();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  const ShardPlan sp = shard(plan);
  EXPECT_EQ(sp.critical_path_cycles, plan.total_cycles)
      << "a 1-cluster shard plan must reproduce the plan total exactly";
  EXPECT_EQ(sp.reduction_cycles, 0u);
  EXPECT_EQ(sp.cluster_busy_cycles[0], plan.total_cycles);
}

TEST(Shard, CriticalPathShrinksWithClustersAndUtilizationIsSane) {
  const Graph g = scaled_resnet18();
  Compiler one(isa_options());
  const CompiledPlan p1 = one.compile(g);

  uint64_t prev = p1.total_cycles;
  for (int n : {2, 4}) {
    Compiler compiler(isa_options(n), one.shared_latencies());
    const CompiledPlan plan = compiler.compile(g);
    const ShardPlan sp = shard(plan);
    EXPECT_LT(sp.critical_path_cycles, prev)
        << "more clusters must shorten the critical path";
    prev = sp.critical_path_cycles;
    // reduction overhead is accounted inside the critical path
    EXPECT_GT(sp.reduction_cycles, 0u);
    EXPECT_LT(sp.reduction_cycles, sp.critical_path_cycles);
    ASSERT_EQ(sp.cluster_busy_cycles.size(), static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) {
      EXPECT_LE(sp.utilization(c), 1.0 + 1e-9);
    }
    EXPECT_GT(sp.utilization(0), 0.5);
  }
  // the paper-style headline: >= 1.7x at 2 clusters against the
  // single-cluster plan (the full-size bench asserts the 4-cluster bar)
  Compiler two(isa_options(2), one.shared_latencies());
  const CompiledPlan p2 = two.compile(g);
  EXPECT_GE(static_cast<double>(p1.total_cycles) /
                static_cast<double>(shard(p2).critical_path_cycles),
            1.7);
}

// --- degenerate layers ------------------------------------------------------

TEST(Shard, LayerWithFewerTilesThanClustersLeavesClustersIdle) {
  const Graph g = tiny_conv(46);
  Compiler compiler(isa_options(8));
  const CompiledPlan plan = compiler.compile(g);
  ASSERT_LT(plan.steps[0].tile_costs.size(), 8u)
      << "the degenerate conv must not be able to fill 8 clusters";

  const ShardPlan sp = shard(plan);
  EXPECT_LT(sp.steps[0].active_clusters(), 8);
  EXPECT_GE(sp.steps[0].active_clusters(), 1);
  // idle clusters report zero utilization, active ones a positive one
  int idle = 0;
  for (int c = 0; c < 8; ++c) idle += sp.utilization(c) == 0.0 ? 1 : 0;
  EXPECT_GT(idle, 0);

  // One token into k = 2 outputs compiles to a single tile even for 4
  // clusters: it runs whole on the root while the others idle.
  for (int m : {0, 8}) {
    const Graph fc = single_fc(1, 512, 2, m, 44 + m);
    const CompiledPlan fc_plan = Compiler(isa_options(4)).compile(fc);
    ASSERT_EQ(fc_plan.steps[0].tile_costs.size(), 1u) << "m=" << m;
    const ShardPlan fc_sp = shard(fc_plan);
    EXPECT_EQ(fc_sp.steps[0].active_clusters(), 1) << "m=" << m;
    EXPECT_TRUE(fc_sp.steps[0].slices[0].active()) << "m=" << m;
    EXPECT_EQ(fc_sp.steps[0].critical_cycles,
              fc_plan.steps[0].report.total_cycles)
        << "m=" << m;
    EXPECT_EQ(fc_sp.critical_path_cycles, fc_plan.total_cycles) << "m=" << m;
  }
}

// --- fingerprints and rejection ---------------------------------------------

TEST(Shard, PlanFingerprintSaltsOnShardConfig) {
  const Graph g = scaled_resnet18();
  const uint64_t f1 = plan_fingerprint(g, isa_options(1));
  const uint64_t f2 = plan_fingerprint(g, isa_options(2));
  const uint64_t f4 = plan_fingerprint(g, isa_options(4));
  EXPECT_NE(f1, f2);
  EXPECT_NE(f2, f4);
  EXPECT_NE(f1, f4);
  // same config, same content: stable
  EXPECT_EQ(f2, plan_fingerprint(g, isa_options(2)));
  // batch salts too (a fused plan is a different tile schedule)
  CompileOptions fused = isa_options(1);
  fused.batch = 4;
  EXPECT_NE(f1, plan_fingerprint(g, fused));
}

TEST(Shard, BatchFusedPlansAreRejected) {
  const Graph g = single_fc(8, 64, 32, 8, 49);
  CompileOptions opt = isa_options(1);
  opt.batch = 4;
  Compiler compiler(opt);
  const CompiledPlan plan = compiler.compile(g);
  EXPECT_THROW(shard_plan(plan), Error);
}

}  // namespace
}  // namespace decimate
