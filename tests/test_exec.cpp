// Exec-layer tests: compile-once/execute-many. A CompiledPlan reused over
// N inputs (or a batch) must be bit-exact — outputs AND per-layer cycle
// reports — with N independent fresh compile-and-run calls, while each
// unique (kernel, tile geometry) is simulated on the ISS only once across
// the whole batch.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>

#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "exec/tile_runner.hpp"
#include "models/models.hpp"

namespace decimate {
namespace {

void expect_same_report(const LayerReport& a, const LayerReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.impl, b.impl);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.dma_cycles, b.dma_cycles);
  EXPECT_EQ(a.weight_dma_cycles, b.weight_dma_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.weight_bytes, b.weight_bytes);
  EXPECT_EQ(a.tiles, b.tiles);
  EXPECT_EQ(a.bits_per_weight, b.bits_per_weight);
}

void expect_same_run(const NetworkRun& a, const NetworkRun& b) {
  EXPECT_TRUE(a.output == b.output);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_macs, b.total_macs);
  EXPECT_EQ(a.weight_bytes, b.weight_bytes);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t i = 0; i < a.layers.size(); ++i) {
    expect_same_report(a.layers[i], b.layers[i]);
  }
}

Graph scaled_resnet18(int sparsity_m = 8) {
  Resnet18Options opt;
  opt.sparsity_m = sparsity_m;
  opt.input_hw = 16;  // scaled-down spatial size for test speed
  return build_resnet18(opt);
}

Graph scaled_vit(int sparsity_m = 8) {
  VitOptions opt;
  opt.image_hw = 64;
  opt.dim = 64;
  opt.depth = 2;
  opt.heads = 2;
  opt.mlp = 256;
  opt.sparsity_m = sparsity_m;
  return build_vit(opt);
}

CompileOptions isa_options() {
  CompileOptions opt;
  opt.enable_isa = true;
  return opt;
}

std::vector<Tensor8> distinct_inputs(const std::vector<int>& shape, int n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor8> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(Tensor8::random(shape, rng));
  return inputs;
}

TEST(Exec, PlanReuseBitExactWithFreshExecutorsResnet18) {
  const Graph g = scaled_resnet18();
  const CompileOptions opt = isa_options();
  const auto inputs = distinct_inputs({16, 16, 4}, 4, 11);

  Compiler compiler(opt);
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine engine;

  for (const Tensor8& input : inputs) {
    const NetworkRun reused = engine.run(plan, input);
    // fresh compiler and latency cache: re-simulates every tile
    const NetworkRun reference =
        ExecutionEngine().run(Compiler(opt).compile(g), input);
    expect_same_run(reused, reference);
  }
}

TEST(Exec, RunBatchMatchesIndividualRunsResnet18) {
  const Graph g = scaled_resnet18();
  const auto inputs = distinct_inputs({16, 16, 4}, 4, 12);

  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine engine;
  const BatchRun batch = engine.run_batch(plan, inputs);

  ASSERT_EQ(batch.runs.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    expect_same_run(batch.runs[i], engine.run(plan, inputs[i]));
  }
  // cycle reports are input-independent: identical across the batch
  EXPECT_EQ(batch.runs[0].total_cycles, batch.runs[1].total_cycles);
  // the pipelined batch model overlaps DMA across images: never slower
  // than the independent per-image sum, and both are populated
  EXPECT_GT(batch.batch_cycles, 0u);
  EXPECT_EQ(batch.sequential_cycles,
            batch.runs[0].total_cycles * batch.runs.size());
  EXPECT_LE(batch.batch_cycles, batch.sequential_cycles);
}

TEST(Exec, RunBatchBitExactWithFreshExecutorsVit) {
  const Graph g = scaled_vit();
  const CompileOptions opt = isa_options();
  const auto inputs = distinct_inputs({64, 64, 4}, 2, 13);

  Compiler compiler(opt);
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine engine;
  const BatchRun batch = engine.run_batch(plan, inputs);

  ASSERT_EQ(batch.runs.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    expect_same_run(batch.runs[i],
                    ExecutionEngine().run(Compiler(opt).compile(g), inputs[i]));
  }
}

TEST(Exec, UniqueTileSimulatedOnceAcrossBatch) {
  const Graph g = scaled_resnet18();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);

  // every ISS simulation happened at compile time, one per unique tile
  const uint64_t misses_after_compile = compiler.latencies().misses();
  EXPECT_GT(misses_after_compile, 0u);
  EXPECT_EQ(misses_after_compile, compiler.latencies().size());

  ExecutionEngine engine;
  const auto inputs = distinct_inputs({16, 16, 4}, 4, 14);
  engine.run_batch(plan, inputs);
  EXPECT_EQ(compiler.latencies().misses(), misses_after_compile);

  // recompiling the same graph hits the cache for every tile
  compiler.compile(g);
  EXPECT_EQ(compiler.latencies().misses(), misses_after_compile);
}

TEST(Exec, LatencyCacheSharedAcrossCompilers) {
  const Graph g = scaled_resnet18();
  Compiler first(isa_options());
  first.compile(g);
  const uint64_t misses = first.latencies().misses();

  Compiler second(isa_options(), first.shared_latencies());
  second.compile(g);
  EXPECT_EQ(second.latencies().misses(), misses);
}

TEST(Exec, PlanCarriesDeploymentArtifacts) {
  const Graph g = scaled_resnet18();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);

  EXPECT_EQ(plan.graph, &g);
  EXPECT_GT(plan.weight_bytes, 0);
  EXPECT_GT(plan.total_cycles, 0u);
  EXPECT_EQ(plan.weight_region, Compiler::weight_region(plan.weight_bytes));
  EXPECT_EQ(plan.steps.size(), static_cast<size_t>(g.size() - 1));

  int gemm_steps = 0, packed_steps = 0;
  for (const PlanStep& step : plan.steps) {
    const Node& node = g.node(step.node_id);
    EXPECT_EQ(step.op, node.op);
    if (node.op == OpType::kConv2d || node.op == OpType::kFc ||
        node.op == OpType::kMatmul) {
      ++gemm_steps;
      EXPECT_NE(step.program, nullptr) << node.name;
      EXPECT_GT(step.program->size(), 0) << node.name;
      EXPECT_GT(step.report.tiles, 0) << node.name;
      if (step.choice.sparse()) {
        EXPECT_TRUE(step.has_packed) << node.name;
        EXPECT_EQ(step.packed.m, step.choice.m) << node.name;
        EXPECT_EQ(step.packed.layout,
                  TileRunner::layout_for(step.choice.kind))
            << node.name;
        ++packed_steps;
      }
    }
  }
  EXPECT_GT(gemm_steps, 0);
  EXPECT_EQ(packed_steps, 16);  // 8 residual blocks x 2 sparse 3x3 convs
}

TEST(Exec, VerifyWithSimOnReusedPlan) {
  // Single-tile layers replay on the ISS with the plan's pre-packed
  // weights; a reused plan must verify for every batch element.
  VitOptions vopt;
  vopt.image_hw = 32;
  vopt.dim = 32;
  vopt.depth = 1;
  vopt.heads = 2;
  vopt.mlp = 64;
  vopt.sparsity_m = 8;
  const Graph g = build_vit(vopt);

  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine engine;
  engine.set_verify_with_sim(true);
  const auto inputs = distinct_inputs({32, 32, 4}, 2, 15);
  const auto batch = engine.run_batch(plan, inputs);  // throws on mismatch
  EXPECT_EQ(batch.runs.size(), 2u);
}

TEST(Exec, HostKernelDispatchBitExactWithReferenceOps) {
  // the host kernel layer (sparse N:M gather + blocked dense) must match
  // the scalar reference path bit for bit across a whole model, for both
  // SW-kernel and ISA-kernel packings (kSw vs dup/interleaved layouts)
  for (const bool isa : {false, true}) {
    CompileOptions opt;
    opt.enable_isa = isa;
    const Graph g = scaled_resnet18();
    Compiler compiler(opt);
    const CompiledPlan plan = compiler.compile(g);

    ExecutionEngine host_engine;  // host kernels on by default
    ExecutionEngine ref_engine;
    ref_engine.set_use_host_kernels(false);
    const auto inputs = distinct_inputs({16, 16, 4}, 3, 21);
    for (const Tensor8& input : inputs) {
      expect_same_run(host_engine.run(plan, input),
                      ref_engine.run(plan, input));
    }
  }
}

TEST(Exec, HostKernelDispatchBitExactOnVit) {
  const Graph g = scaled_vit();  // conv stem + FC + matmul + layernorm
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine host_engine;
  ExecutionEngine ref_engine;
  ref_engine.set_use_host_kernels(false);
  const Tensor8 input = distinct_inputs({64, 64, 4}, 1, 22).front();
  expect_same_run(host_engine.run(plan, input), ref_engine.run(plan, input));
}

TEST(Exec, IntraImageThreadingBitExactOnResnet18AndVit) {
  // splitting each gemm step's output rows or channels (conv: channels
  // once a row part is narrower than the kernel's pixel block, as on the
  // scaled model's 4x4 and 2x2 planes) / tokens or channels (FC, matmul)
  // across the pool must be bit-identical to the serial
  // path — outputs AND reports — at any thread count, with the MAC floor
  // zeroed so even the tiniest steps take the parallel path. Both entry
  // points split: run() (set_intra_image_threads) and a one-image
  // run_batch (set_workers).
  for (const bool vit : {false, true}) {
    const Graph g = vit ? scaled_vit() : scaled_resnet18();
    Compiler compiler(isa_options());
    const CompiledPlan plan = compiler.compile(g);
    const std::vector<int> shape =
        vit ? std::vector<int>{64, 64, 4} : std::vector<int>{16, 16, 4};
    const auto inputs = distinct_inputs(shape, 2, 31);

    ExecutionEngine serial;
    serial.set_intra_image_threads(1);
    for (const int threads : {2, 5}) {
      ExecutionEngine threaded;
      threaded.set_intra_image_threads(threads);
      threaded.set_intra_mac_floor(0);
      ExecutionEngine batched;
      batched.set_workers(threads);
      batched.set_intra_mac_floor(0);
      for (const Tensor8& input : inputs) {
        const NetworkRun ref = serial.run(plan, input);
        expect_same_run(threaded.run(plan, input), ref);
        const BatchRun one = batched.run_batch(plan, {&input, 1});
        ASSERT_EQ(one.runs.size(), 1u);
        expect_same_run(one.runs[0], ref);
      }
    }
  }
}

TEST(Exec, IntraImageThreadsFollowPlanOptionsByDefault) {
  // CompileOptions::host_threads drives an engine left at the default
  // (-1); the knob changes wall-clock routing only, never bytes
  const Graph g = scaled_resnet18();
  CompileOptions opt = isa_options();
  opt.host_threads = 3;
  Compiler compiler(opt);
  const CompiledPlan plan = compiler.compile(g);

  Compiler serial_compiler(isa_options());  // host_threads = 1
  const CompiledPlan serial_plan = serial_compiler.compile(g);

  ExecutionEngine follows_plan;  // intra threads default -1
  follows_plan.set_intra_mac_floor(0);
  ExecutionEngine serial;
  const Tensor8 input = distinct_inputs({16, 16, 4}, 1, 32).front();
  expect_same_run(follows_plan.run(plan, input),
                  serial.run(serial_plan, input));
}

TEST(Exec, BatchAndIntraImageParallelismCompose) {
  // run_batch image tasks claim pool slots; an intra-image split fired
  // inside one must nest inline (WorkerPool guard) and stay bit-exact
  const Graph g = scaled_resnet18();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  const auto inputs = distinct_inputs({16, 16, 4}, 4, 33);

  ExecutionEngine engine;
  engine.set_workers(3);
  engine.set_intra_image_threads(4);
  engine.set_intra_mac_floor(0);
  const BatchRun batch = engine.run_batch(plan, inputs);

  ExecutionEngine serial;
  serial.set_intra_image_threads(1);
  ASSERT_EQ(batch.runs.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    expect_same_run(batch.runs[i], serial.run(plan, inputs[i]));
  }
}

TEST(Exec, RunBatchReusesThePersistentWorkerPool) {
  const Graph g = scaled_resnet18();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine engine;
  engine.set_workers(3);
  const auto inputs = distinct_inputs({16, 16, 4}, 4, 23);
  const BatchRun first = engine.run_batch(plan, inputs);
  const BatchRun second = engine.run_batch(plan, inputs);  // pool reused
  for (size_t i = 0; i < inputs.size(); ++i) {
    expect_same_run(first.runs[i], second.runs[i]);
  }
}

TEST(Exec, LatencyCacheRoundTripsThroughAFile) {
  const std::string path =
      ::testing::TempDir() + "/decimate_latency_cache.bin";
  const Graph g = scaled_resnet18();
  CompileOptions opt = isa_options();
  opt.latency_cache_path = path;
  {
    Compiler compiler(opt);  // file absent: cold start
    compiler.compile(g);
    EXPECT_GT(compiler.latencies().misses(), 0u);
    EXPECT_EQ(compiler.save_latencies(), compiler.latencies().size());
  }
  // a fresh compiler warm-starts from the file: zero ISS simulations
  Compiler warm(opt);
  EXPECT_GT(warm.latencies().size(), 0u);
  const CompiledPlan plan = warm.compile(g);
  EXPECT_EQ(warm.latencies().misses(), 0u);
  EXPECT_GT(plan.total_cycles, 0u);

  // and the warm plan is identical to a cold-compiled one
  CompileOptions cold_opt = isa_options();
  Compiler cold(cold_opt);
  const CompiledPlan cold_plan = cold.compile(g);
  EXPECT_EQ(plan.total_cycles, cold_plan.total_cycles);
  ASSERT_EQ(plan.steps.size(), cold_plan.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    expect_same_report(plan.steps[i].report, cold_plan.steps[i].report);
  }
  std::remove(path.c_str());
}

TEST(Exec, LatencyCacheLoadKeepsMeasuredEntries) {
  const std::string path =
      ::testing::TempDir() + "/decimate_latency_merge.bin";
  TileLatencyCache a;
  const TileKey key = fc_tile_key(KernelKind::kFcDense, 0, {4, 64, 8}, 1);
  EXPECT_EQ(a.measure(key, [] { return 111u; }), 111u);
  EXPECT_EQ(a.save(path), 1u);

  TileLatencyCache b;
  b.measure(key, [] { return 222u; });  // measured before the load
  EXPECT_EQ(b.load(path), 0u);          // existing key wins
  EXPECT_EQ(b.measure(key, [] { return 333u; }), 222u);

  TileLatencyCache c;
  EXPECT_EQ(c.load(path), 1u);
  // loaded entry satisfies measure() without running the simulation
  EXPECT_EQ(c.measure(key,
                      []() -> uint64_t {
                        ADD_FAILURE() << "simulated a loaded key";
                        return 0;
                      }),
            111u);
  EXPECT_EQ(c.load("/nonexistent/latency.bin"), 0u);  // missing file is ok
  std::remove(path.c_str());
}

TEST(Exec, ProgramCacheIsThreadSafe) {
  const std::pair<KernelKind, int> wanted[] = {
      {KernelKind::kConvDense4x2, 0},  {KernelKind::kConvDense1x2, 0},
      {KernelKind::kConvSparseSw, 8},  {KernelKind::kConvSparseIsa, 16},
      {KernelKind::kFcDense, 0},       {KernelKind::kFcSparseSw, 4},
      {KernelKind::kFcSparseIsa, 8},
  };
  std::vector<std::thread> threads;
  std::array<const Program*, 8 * std::size(wanted)> seen{};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &wanted, &seen] {
      for (size_t i = 0; i < std::size(wanted); ++i) {
        seen[t * std::size(wanted) + i] =
            &TileRunner::program_for(wanted[i].first, wanted[i].second);
      }
    });
  }
  for (auto& th : threads) th.join();
  // all threads observed the same cached Program instances
  for (size_t i = 0; i < std::size(wanted); ++i) {
    for (int t = 1; t < 8; ++t) {
      EXPECT_EQ(seen[t * std::size(wanted) + i], seen[i]);
    }
  }
}

}  // namespace
}  // namespace decimate
