// Randomized coverage: encoding round-trip fuzzing over random operand
// fields, ISS determinism across repeated runs, mixed per-stage sparsity
// deployment, and randomized kernel-vs-reference geometry sampling.

#include <gtest/gtest.h>

#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "isa/encoding.hpp"
#include "models/models.hpp"
#include "nn/prune.hpp"
#include "nn/ref_ops.hpp"
#include "testutil.hpp"

namespace decimate {
namespace {

TEST(EncodingFuzz, RandomOperandsRoundTrip) {
  Rng r(1234);
  const Opcode simple_r[] = {Opcode::kAdd, Opcode::kSub, Opcode::kMul,
                             Opcode::kPMax, Opcode::kLbRr, Opcode::kPvSdotspB};
  const Opcode imm_ops[] = {Opcode::kAddi, Opcode::kAndi, Opcode::kLw,
                            Opcode::kLbu, Opcode::kLwPi, Opcode::kLhuPi};
  for (int trial = 0; trial < 500; ++trial) {
    Instr in;
    if (trial % 2 == 0) {
      in.op = simple_r[static_cast<size_t>(r.uniform_int(0, 5))];
      in.rd = static_cast<uint8_t>(r.uniform_int(0, 31));
      in.rs1 = static_cast<uint8_t>(r.uniform_int(0, 31));
      in.rs2 = static_cast<uint8_t>(r.uniform_int(0, 31));
      if (in.op == Opcode::kPMax) in.rd = static_cast<uint8_t>(r.uniform_int(1, 31));
    } else {
      in.op = imm_ops[static_cast<size_t>(r.uniform_int(0, 5))];
      in.rd = static_cast<uint8_t>(r.uniform_int(0, 31));
      in.rs1 = static_cast<uint8_t>(r.uniform_int(0, 31));
      in.imm = r.uniform_int(-2048, 2047);
    }
    const int pc = r.uniform_int(0, 1000);
    const Instr out = decode(encode(in, pc), pc);
    ASSERT_EQ(out.op, in.op);
    ASSERT_EQ(out.rd, in.rd);
    ASSERT_EQ(out.rs1, in.rs1);
    ASSERT_EQ(out.rs2, in.rs2);
    ASSERT_EQ(out.imm, in.imm);
  }
}

TEST(EncodingFuzz, BranchOffsetsRoundTripAcrossRange) {
  Rng r(77);
  for (int trial = 0; trial < 300; ++trial) {
    Instr in;
    in.op = (trial % 2) ? Opcode::kBne : Opcode::kBlt;
    in.rs1 = static_cast<uint8_t>(r.uniform_int(0, 31));
    in.rs2 = static_cast<uint8_t>(r.uniform_int(0, 31));
    const int pc = r.uniform_int(600, 1400);
    in.imm = pc + r.uniform_int(-512, 511);  // target within B-range
    const Instr out = decode(encode(in, pc), pc);
    ASSERT_EQ(out.imm, in.imm) << "pc=" << pc;
  }
}

TEST(IssFuzz, DeterministicAcrossRuns) {
  const ConvGeom g{.ix = 8, .iy = 8, .c = 32, .k = 8, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  Rng rng(9);
  const Tensor8 input = Tensor8::random({8, 8, 32}, rng);
  Tensor8 w = test::random_sparse_weights(8, g.fsz(), 8, rng);
  const NmPacked packed = nm_pack(w.flat(), 8, g.fsz(), 8, NmLayout::kSw);
  const Tensor32 bias = test::random_bias(8, rng);
  uint64_t cycles0 = 0;
  for (int run = 0; run < 3; ++run) {
    test::TestRig rig;
    const KernelRun kr = rig.runner->conv(KernelKind::kConvSparseSw, g,
                                          test::test_requant(), input,
                                          nullptr, &packed, bias);
    if (run == 0) {
      cycles0 = kr.result.wall_cycles;
    } else {
      EXPECT_EQ(kr.result.wall_cycles, cycles0);
    }
  }
}

TEST(IssFuzz, RandomConvGeometriesMatchReference) {
  Rng r(31337);
  test::TestRig rig;
  int tested = 0;
  for (int trial = 0; trial < 40 && tested < 12; ++trial) {
    ConvGeom g;
    g.c = 4 * r.uniform_int(1, 16);
    g.k = r.uniform_int(1, 24);
    g.fx = g.fy = 1 + 2 * r.uniform_int(0, 2);  // 1/3/5
    g.stride = r.uniform_int(1, 2);
    g.pad = r.uniform_int(0, g.fx / 2);
    g.ix = g.iy = 2 * r.uniform_int(2, 6) * g.stride;
    if (g.ix + 2 * g.pad < g.fx || g.ox() % 2 != 0 || g.ox() < 2) continue;
    const int m = (trial % 2) ? 8 : 16;
    if (g.fsz() % m != 0) continue;
    ++tested;
    Rng wr(static_cast<uint64_t>(trial));
    const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, wr);
    Tensor8 w = test::random_sparse_weights(g.k, g.fsz(), m, wr);
    const Tensor32 bias = test::random_bias(g.k, wr);
    const Tensor8 expected =
        conv2d_s8(input, w, bias, g, test::test_requant());
    const NmPacked packed =
        nm_pack(w.flat(), g.k, g.fsz(), m, NmLayout::kConvIsaDup);
    const KernelRun kr =
        rig.runner->conv(KernelKind::kConvSparseIsa, g, test::test_requant(),
                         input, nullptr, &packed, bias);
    ASSERT_TRUE(kr.output == expected)
        << "geom c=" << g.c << " k=" << g.k << " f=" << g.fx
        << " s=" << g.stride << " p=" << g.pad << " ix=" << g.ix
        << " m=" << m;
  }
  EXPECT_GE(tested, 8);
}

TEST(MixedSparsity, PerStagePatternsDeployIndependently) {
  Resnet18Options ropt;
  ropt.input_hw = 16;
  ropt.per_stage_m = {0, 4, 8, 16};
  const Graph g = build_resnet18(ropt);
  // pattern recognition sees each stage's M
  int seen[17] = {};
  for (const auto& n : g.nodes()) {
    if (n.op != OpType::kConv2d || n.conv.fx != 3 || n.name == "stem") {
      continue;
    }
    const int m = detect_one_to_m(n.weights.flat(), n.conv.k, n.conv.fsz());
    ++seen[m];
  }
  EXPECT_EQ(seen[0], 4);   // stage 1 dense
  EXPECT_EQ(seen[4], 4);
  EXPECT_EQ(seen[8], 4);
  EXPECT_EQ(seen[16], 4);
  // and the executor runs it end to end
  Rng rng(3);
  const Tensor8 input = Tensor8::random({16, 16, 4}, rng);
  CompileOptions copt;
  copt.enable_isa = true;
  ExecutionEngine engine;
  const NetworkRun run = engine.run(Compiler(copt).compile(g), input);
  EXPECT_GT(run.total_cycles, 0u);
  // mixed memory sits between uniform dense and uniform 1:16
  Resnet18Options dense_opt;
  dense_opt.input_hw = 16;
  const NetworkRun dense =
      engine.run(Compiler(copt).compile(build_resnet18(dense_opt)), input);
  Resnet18Options s16;
  s16.input_hw = 16;
  s16.sparsity_m = 16;
  const NetworkRun sparse =
      engine.run(Compiler(copt).compile(build_resnet18(s16)), input);
  EXPECT_LT(run.weight_bytes, dense.weight_bytes);
  EXPECT_GT(run.weight_bytes, sparse.weight_bytes);
  EXPECT_LT(run.total_cycles, dense.total_cycles);
  EXPECT_GT(run.total_cycles, sparse.total_cycles);
}

}  // namespace
}  // namespace decimate
