// Plan-verifier tests: adversarial corruptions of real CompiledPlans must
// be caught with the exact check id the defect class documents, and — the
// zero-false-positive half — every plan the compiler actually produces
// must verify with no findings at all.

#include <gtest/gtest.h>

#include <limits>

#include "exec/compile.hpp"
#include "isa/instr.hpp"
#include "models/models.hpp"
#include "nn/prune.hpp"
#include "serve/plan_store.hpp"
#include "shard/shard_planner.hpp"
#include "verify/verify.hpp"

namespace decimate {
namespace {

// One ISS-measurement cache for the whole suite: repeated geometries
// across tests never re-simulate.
std::shared_ptr<TileLatencyCache> suite_cache() {
  static auto cache = std::make_shared<TileLatencyCache>();
  return cache;
}

Graph single_conv(const ConvGeom& g, int m, uint64_t seed = 7) {
  Rng rng(seed);
  Graph graph({g.iy, g.ix, g.c});
  Node n;
  n.op = OpType::kConv2d;
  n.name = "conv";
  n.inputs = {0};
  n.conv = g;
  n.weights = Tensor8::random({g.k, g.fsz()}, rng);
  if (m != 0) nm_prune(n.weights.flat(), g.k, g.fsz(), 1, m);
  Tensor32 bias({g.k});
  for (int i = 0; i < g.k; ++i) bias[i] = rng.uniform_int(-500, 500);
  n.bias = std::move(bias);
  n.rq = calibrate_requant(g.fsz());
  n.out_shape = {g.oy(), g.ox(), g.k};
  graph.add(std::move(n));
  return graph;
}

Graph single_fc(const FcGeom& g, int m, uint64_t seed = 7,
                Requant rq = {0, 0}, int32_t bias0 = 0) {
  Rng rng(seed);
  Graph graph({g.tokens, g.c});
  Node n;
  n.op = OpType::kFc;
  n.name = "fc";
  n.inputs = {0};
  n.fc = g;
  n.weights = Tensor8::random({g.k, g.c}, rng);
  if (m != 0) nm_prune(n.weights.flat(), g.k, g.c, 1, m);
  Tensor32 bias({g.k});
  for (int i = 0; i < g.k; ++i) bias[i] = rng.uniform_int(-500, 500);
  if (bias0 != 0) bias[0] = bias0;
  n.bias = std::move(bias);
  n.rq = (rq.mult != 0 || rq.shift != 0) ? rq : calibrate_requant(g.c);
  n.out_shape = {g.tokens, g.k};
  graph.add(std::move(n));
  return graph;
}

CompileOptions options(bool isa = false) {
  CompileOptions opt;
  opt.enable_isa = isa;
  opt.verify_plans = false;  // tests corrupt plans and verify by hand
  return opt;
}

CompiledPlan compile(const Graph& g, const CompileOptions& opt) {
  Compiler compiler(opt, suite_cache());
  return compiler.compile(g);
}

// --- zero false positives ---------------------------------------------------

TEST(Verify, CleanOnEveryCompiledPlan) {
  const ConvGeom cg{.ix = 8, .iy = 8, .c = 32, .k = 16, .fx = 3, .fy = 3,
                    .stride = 1, .pad = 1};
  const FcGeom fg{.tokens = 8, .c = 64, .k = 16};
  for (const int m : {0, 2, 4, 8, 16}) {
    for (const bool isa : {false, true}) {
      const Graph conv = single_conv(cg, m, 7 + static_cast<uint64_t>(m));
      const Graph fc = single_fc(fg, m, 9 + static_cast<uint64_t>(m));
      for (const Graph* g : {&conv, &fc}) {
        const CompiledPlan plan = compile(*g, options(isa));
        const VerifyReport rep = verify_plan(plan);
        EXPECT_TRUE(rep.clean()) << "m=" << m << " isa=" << isa << "\n"
                                 << rep.to_string();
        EXPECT_GT(rep.checks_run, 0);
      }
    }
  }
}

TEST(Verify, CleanOnBatchedAndMultiClusterPlans) {
  const FcGeom fg{.tokens = 8, .c = 64, .k = 16};
  const Graph fc = single_fc(fg, 8);
  for (const int batch : {1, 4}) {
    for (const int clusters : {1, 2}) {
      CompileOptions opt = options(true);
      opt.batch = batch;
      opt.num_clusters = clusters;
      const CompiledPlan plan = compile(fc, opt);
      const VerifyReport rep = verify_plan(plan);
      EXPECT_TRUE(rep.clean()) << "batch=" << batch << " nc=" << clusters
                               << "\n" << rep.to_string();
    }
  }
}

// --- compiler post-pass / serving admission gate ----------------------------

TEST(Verify, CompilerPostPassAcceptsGoodPlans) {
  CompileOptions opt = options();
  opt.verify_plans = true;
  const Graph g = single_fc({.tokens = 4, .c = 64, .k = 16}, 8);
  EXPECT_NO_THROW({
    Compiler compiler(opt, suite_cache());
    (void)compiler.compile(g);
  });
}

TEST(Verify, CompilerPostPassRejectsIllegalRequant) {
  // A graph whose requant can never have come from make_requant: the
  // compiler lowers it happily, the verifier must refuse it.
  CompileOptions opt = options();
  opt.verify_plans = true;
  const Graph bad =
      single_fc({.tokens = 4, .c = 64, .k = 16}, 0, 11, Requant{-3, 31});
  Compiler compiler(opt, suite_cache());
  try {
    (void)compiler.compile(bad);
    FAIL() << "compile accepted an illegal requant";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().has("quant.mult")) << e.what();
    EXPECT_TRUE(e.report().has("quant.shift")) << e.what();
    EXPECT_NE(std::string(e.what()).find("plan verification failed"),
              std::string::npos);
  }
}

TEST(Verify, PlanStoreAdmissionGateRejectsBadPlans) {
  // The store verifies even when the per-compile post-pass is off (the
  // Release default) — a serving plan is never admitted unchecked.
  CompileOptions base = options();
  PlanStore store(base, suite_cache());
  const Graph good = single_fc({.tokens = 4, .c = 64, .k = 16}, 8);
  const Graph bad =
      single_fc({.tokens = 4, .c = 64, .k = 16}, 0, 11, Requant{-3, 31});
  const int good_id = store.add_model(good);
  const int bad_id = store.add_model(bad);
  EXPECT_NO_THROW(store.plan(good_id, 1, 1));
  EXPECT_THROW(store.plan(bad_id, 1, 1), VerifyError);
  EXPECT_FALSE(store.contains(bad_id, 1, 1));
}

// --- family 2: tile-schedule coverage ---------------------------------------

class VerifyTiles : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = single_conv({.ix = 8, .iy = 8, .c = 32, .k = 16, .fx = 3,
                          .fy = 3, .stride = 1, .pad = 1},
                         8);
    plan_ = compile(graph_, options());
    ASSERT_TRUE(verify_plan(plan_).clean());
    ASSERT_FALSE(plan_.steps[0].tiles_meta.empty());
  }
  Graph graph_{std::vector<int>{1}};
  CompiledPlan plan_;
};

TEST_F(VerifyTiles, DuplicatedTileIsOverlap) {
  CompiledPlan p = plan_;
  p.steps[0].tiles_meta.push_back(p.steps[0].tiles_meta[0]);
  p.steps[0].tile_costs.push_back(p.steps[0].tile_costs[0]);
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("tiles.overlap")) << rep.to_string();
  EXPECT_FALSE(rep.ok());
}

TEST_F(VerifyTiles, ShrunkTileIsGap) {
  CompiledPlan p = plan_;
  ShardTile& t = p.steps[0].tiles_meta[0];
  t.a_e -= 1;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("tiles.gap")) << rep.to_string();
}

TEST_F(VerifyTiles, TileOutsideOutputIsBounds) {
  // rows past the output, and row bounds at the int limits an edited
  // artifact can carry (the window arithmetic must not overflow on them)
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  const ShardTile first = plan_.steps[0].tiles_meta[0];
  const int past = graph_.node(1).conv.oy() + 7;
  for (const auto& [a_s, a_e] : std::vector<std::pair<int, int>>{
           {first.a_s, past}, {0, kMax}, {kMin, first.a_e}, {kMin, kMax}}) {
    CompiledPlan p = plan_;
    p.steps[0].tiles_meta[0].a_s = a_s;
    p.steps[0].tiles_meta[0].a_e = a_e;
    const VerifyReport rep = verify_plan(p);
    EXPECT_TRUE(rep.has("tiles.bounds")) << rep.to_string();
    // ... and the implied input window no longer fits the padded input
    EXPECT_TRUE(rep.has("mem.window")) << rep.to_string();
  }
}

TEST_F(VerifyTiles, MetaNotParallelToCostsIsCount) {
  CompiledPlan p = plan_;
  p.steps[0].tile_costs.pop_back();
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("tiles.count")) << rep.to_string();
}

TEST_F(VerifyTiles, WrongOutBytesIsCaught) {
  CompiledPlan p = plan_;
  p.steps[0].tiles_meta[0].out_bytes += 3;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("tiles.out_bytes")) << rep.to_string();
}

TEST_F(VerifyTiles, ScheduleThatNeverStagesInputIsCaught) {
  CompiledPlan p = plan_;
  for (ShardTile& t : p.steps[0].tiles_meta) t.loads_input = false;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("tiles.loads")) << rep.to_string();
}

// --- family 3: N:M pack validation ------------------------------------------

class VerifyPack : public ::testing::Test {
 protected:
  void SetUp() override {
    // c = 40 at 1:8 -> 5 NZ/row padded to 8: real padding slots to corrupt
    graph_ = single_fc({.tokens = 4, .c = 40, .k = 16}, 8);
    plan_ = compile(graph_, options());
    ASSERT_TRUE(verify_plan(plan_).clean());
    ASSERT_TRUE(plan_.steps[0].has_packed);
    ASSERT_EQ(plan_.steps[0].packed.nz_per_row, 5);
    ASSERT_EQ(plan_.steps[0].packed.nz_padded, 8);
  }
  Graph graph_{std::vector<int>{1}};
  CompiledPlan plan_;
};

TEST_F(VerifyPack, OffsetBeyondMIsCaughtAndRoundTripSkipped) {
  CompiledPlan p = plan_;
  p.steps[0].packed.offsets[0] |= 0x0F;  // field 0: raw 15 >= M=8
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("pack.offset_range")) << rep.to_string();
  // decode would index out of bounds; the verifier must not attempt it
  EXPECT_FALSE(rep.has("pack.roundtrip")) << rep.to_string();
}

TEST_F(VerifyPack, CorruptValueFailsRoundTrip) {
  CompiledPlan p = plan_;
  p.steps[0].packed.values[0] ^= 1;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("pack.roundtrip")) << rep.to_string();
  EXPECT_FALSE(rep.has("pack.offset_range"));
}

TEST_F(VerifyPack, NonZeroPaddingValueIsCaught) {
  CompiledPlan p = plan_;
  // row 0, first padded slot: the kernels would accumulate it
  p.steps[0].packed.values[p.steps[0].packed.nz_per_row] = 1;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("pack.padding")) << rep.to_string();
}

TEST_F(VerifyPack, InconsistentMetadataIsCaught) {
  CompiledPlan p = plan_;
  p.steps[0].packed.nz_per_row += 1;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("pack.meta")) << rep.to_string();
}

TEST_F(VerifyPack, LayoutMismatchedToKernelIsCaught) {
  CompiledPlan p = plan_;
  p.steps[0].packed.layout = NmLayout::kConvIsaDup;  // SW kernel step
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("pack.layout")) << rep.to_string();
}

TEST(VerifyPackIsa, BrokenConvOffsetDuplicationIsCaught) {
  const Graph g = single_conv({.ix = 8, .iy = 8, .c = 32, .k = 8, .fx = 3,
                               .fy = 3, .stride = 1, .pad = 1},
                              8);
  CompiledPlan plan = compile(g, options(/*isa=*/true));
  ASSERT_TRUE(plan.steps[0].has_packed);
  ASSERT_EQ(plan.steps[0].packed.layout, NmLayout::kConvIsaDup);
  ASSERT_TRUE(verify_plan(plan).clean());
  // fields 2j / 2j+1 must agree; flip one bit of the duplicate (stays < M)
  plan.steps[0].packed.offsets[0] ^= 0x10;
  const VerifyReport rep = verify_plan(plan);
  EXPECT_TRUE(rep.has("pack.dup")) << rep.to_string();
  EXPECT_FALSE(rep.has("pack.offset_range"));
}

TEST(VerifyPackIsa, DenseChoiceWithPackedWeightsIsCaught) {
  const Graph g = single_fc({.tokens = 4, .c = 64, .k = 16}, 8);
  CompiledPlan plan = compile(g, options());
  ASSERT_TRUE(plan.steps[0].has_packed);
  plan.steps[0].choice = KernelChoice{KernelKind::kFcDense, 0};
  const VerifyReport rep = verify_plan(plan);
  EXPECT_TRUE(rep.has("pack.missing")) << rep.to_string();
}

// --- family 4: quantization range analysis ----------------------------------

TEST(VerifyQuant, BiasDrivenAccumulatorOverflowIsCaught) {
  // |acc| = 127 * sum|w| + |bias| past INT32_MAX: runs, but wraps.
  const Graph g =
      single_fc({.tokens = 4, .c = 64, .k = 16}, 0, 13, Requant{0, 0},
                std::numeric_limits<int32_t>::max());
  const CompiledPlan plan = compile(g, options());
  const VerifyReport rep = verify_plan(plan);
  EXPECT_TRUE(rep.has("quant.overflow")) << rep.to_string();
  EXPECT_FALSE(rep.ok());
}

TEST(VerifyQuant, WrappingRequantMultiplyIsAWarningNotAnError) {
  // worst |acc| fits int32, but acc * mult does not: suspicious, still
  // executable — must warn, must not fail the compile post-pass.
  const Graph g =
      single_fc({.tokens = 4, .c = 64, .k = 16}, 0, 13, Requant{4096, 25});
  CompileOptions opt = options();
  opt.verify_plans = true;
  Compiler compiler(opt, suite_cache());
  CompiledPlan plan;
  EXPECT_NO_THROW(plan = compiler.compile(g));
  const VerifyReport rep = verify_plan(plan);
  EXPECT_TRUE(rep.has("quant.wrap")) << rep.to_string();
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.clean());
  EXPECT_GE(rep.warnings(), 1);
}

// --- family 5: program / memory legality ------------------------------------

class VerifyProg : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = single_fc({.tokens = 4, .c = 64, .k = 16}, 8);
    plan_ = compile(graph_, options());
    ASSERT_TRUE(verify_plan(plan_).clean());
  }
  Graph graph_{std::vector<int>{1}};
  CompiledPlan plan_;
};

TEST_F(VerifyProg, MissingProgramIsCaught) {
  CompiledPlan p = plan_;
  p.steps[0].program = nullptr;
  EXPECT_TRUE(verify_plan(p).has("prog.missing"));
}

TEST_F(VerifyProg, RegisterIndexOutOfRangeIsCaught) {
  Program bad;
  bad.code.push_back(Instr{.op = Opcode::kAddi, .rd = 40});
  bad.code.push_back(Instr{.op = Opcode::kHalt});
  CompiledPlan p = plan_;
  p.steps[0].program = &bad;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("prog.reg")) << rep.to_string();
}

TEST_F(VerifyProg, BranchTargetOutsideProgramIsCaught) {
  Program bad;
  bad.code.push_back(Instr{.op = Opcode::kBne, .imm = 99});
  bad.code.push_back(Instr{.op = Opcode::kHalt});
  CompiledPlan p = plan_;
  p.steps[0].program = &bad;
  EXPECT_TRUE(verify_plan(p).has("prog.target"));
}

TEST_F(VerifyProg, ProgramWithoutHaltIsCaught) {
  Program bad;
  bad.code.push_back(Instr{.op = Opcode::kAddi});
  CompiledPlan p = plan_;
  p.steps[0].program = &bad;
  EXPECT_TRUE(verify_plan(p).has("prog.halt"));
}

TEST_F(VerifyProg, L1BudgetViolationIsCaught) {
  CompiledPlan p = plan_;
  p.steps[0].fc_tiles.l1_bytes = MemoryMap::kL1Size + 1;
  EXPECT_TRUE(verify_plan(p).has("mem.l1"));
}

TEST_F(VerifyProg, WrongDeployedWeightBytesIsCaught) {
  CompiledPlan p = plan_;
  p.weight_bytes += 1;
  EXPECT_TRUE(verify_plan(p).has("mem.weight_bytes"));
}

TEST_F(VerifyProg, WrongCycleTotalsAreCaught) {
  CompiledPlan p = plan_;
  p.steps[0].report.total_cycles += 1;
  const VerifyReport rep = verify_plan(p);
  EXPECT_TRUE(rep.has("report.cycles")) << rep.to_string();
  EXPECT_TRUE(rep.has("plan.totals")) << rep.to_string();
}

TEST_F(VerifyProg, StepNotMirroringItsNodeIsCaught) {
  CompiledPlan p = plan_;
  p.steps[0].node_id = 2;
  EXPECT_TRUE(verify_plan(p).has("plan.steps"));
}

// --- shard verification -----------------------------------------------------

class VerifyShard : public ::testing::Test {
 protected:
  void SetUp() override {
    // large enough conv to compile to several tiles
    graph_ = single_conv({.ix = 16, .iy = 16, .c = 64, .k = 64, .fx = 3,
                          .fy = 3, .stride = 1, .pad = 1},
                         8);
    CompileOptions opt = options(true);
    opt.num_clusters = 2;
    plan_ = compile(graph_, opt);
    shard_ = shard_plan(plan_);
    ASSERT_TRUE(verify_shard(plan_, shard_).clean());
    step_ = -1;
    for (size_t i = 0; i < shard_.steps.size(); ++i) {
      if (shard_.steps[i].axis == ShardAxis::kGemmTiles &&
          shard_.steps[i].active_clusters() == 2) {
        step_ = static_cast<int>(i);
        break;
      }
    }
    ASSERT_GE(step_, 0) << "no tile-sharded step to corrupt";
  }
  Graph graph_{std::vector<int>{1}};
  CompiledPlan plan_;
  ShardPlan shard_;
  int step_ = -1;
};

TEST_F(VerifyShard, TileAssignedTwiceIsCaught) {
  ShardPlan s = shard_;
  StepShard& ss = s.steps[static_cast<size_t>(step_)];
  ss.slices[0].tiles.push_back(ss.slices[1].tiles[0]);
  const VerifyReport rep = verify_shard(plan_, s);
  EXPECT_TRUE(rep.has("shard.tiles")) << rep.to_string();
  EXPECT_TRUE(rep.has("shard.out_bytes")) << rep.to_string();
}

TEST_F(VerifyShard, TileAssignedNowhereIsCaught) {
  ShardPlan s = shard_;
  s.steps[static_cast<size_t>(step_)].slices[1].tiles.pop_back();
  const VerifyReport rep = verify_shard(plan_, s);
  EXPECT_TRUE(rep.has("shard.tiles")) << rep.to_string();
}

TEST_F(VerifyShard, AxisMismatchIsCaught) {
  ShardPlan s = shard_;
  s.steps[static_cast<size_t>(step_)].axis = ShardAxis::kRows;
  EXPECT_TRUE(verify_shard(plan_, s).has("shard.axis"));
}

TEST_F(VerifyShard, WrongCriticalPathIsCaught) {
  ShardPlan s = shard_;
  s.steps[static_cast<size_t>(step_)].critical_cycles += 1;
  const VerifyReport rep = verify_shard(plan_, s);
  EXPECT_TRUE(rep.has("shard.cycles")) << rep.to_string();
  EXPECT_TRUE(rep.has("shard.total")) << rep.to_string();
}

TEST(VerifyShardFcC, BatchedPlansAreRejected) {
  const Graph g = single_fc({.tokens = 3, .c = 512, .k = 4}, 8, 44);
  CompileOptions opt = options(true);
  opt.num_clusters = 2;
  const CompiledPlan plan = compile(g, opt);
  const ShardPlan shard = shard_plan(plan);
  opt.batch = 2;
  const CompiledPlan batched = compile(g, opt);
  EXPECT_TRUE(verify_shard(batched, shard).has("shard.batch"));
}

}  // namespace
}  // namespace decimate
