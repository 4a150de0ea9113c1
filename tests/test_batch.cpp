// Batch-execution and cache-soundness tests: the three cache/cycle-model
// regressions (maxpool tile-key collision, ReLU tail truncation,
// latency-cache races), pipelined run_batch bit-exactness against
// sequential per-image runs, and batch-fused FC weight-DMA amortization.
// The compile-once guarantee is PlanStore's (see test_serve).

#include <gtest/gtest.h>

#include <thread>

#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "nn/prune.hpp"

namespace decimate {
namespace {

CompileOptions isa_options() {
  CompileOptions opt;
  opt.enable_isa = true;
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

std::vector<Tensor8> distinct_inputs(const std::vector<int>& shape, int n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor8> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(Tensor8::random(shape, rng));
  return inputs;
}

Graph maxpool_graph(int h, int w, int c) {
  Graph g({h, w, c});
  Node n;
  n.op = OpType::kMaxPool2;
  n.name = "pool";
  n.inputs = {0};
  n.out_shape = {h / 2, w / 2, c};
  g.add(std::move(n));
  return g;
}

Graph relu_graph(int numel) {
  Graph g({1, numel});
  Node n;
  n.op = OpType::kRelu;
  n.name = "relu";
  n.inputs = {0};
  n.out_shape = {1, numel};
  g.add(std::move(n));
  return g;
}

/// Two sparse FC layers (d -> hidden -> d) over `tokens` rows — the ViT
/// FFN shape the paper sparsifies, used by the batch-fusion tests.
Graph ffn_block(int tokens, int d, int hidden, int m, uint64_t seed) {
  return build_ffn_block(tokens, d, hidden, m, seed);
}

// --- cache / cycle-model regressions ----------------------------------------

TEST(TileKeys, MaxpoolShapesWithEqualProductsAreDistinct) {
  // (w, c) = (8, 4) and (4, 8) share rows = 4 and 2*w*c = 64; conflating
  // them silently reuses one shape's measured cycles for the other.
  Compiler first(isa_options());
  first.compile(maxpool_graph(8, 8, 4));
  const uint64_t misses = first.latencies().misses();
  EXPECT_GT(misses, 0u);

  Compiler second(isa_options(), first.shared_latencies());
  second.compile(maxpool_graph(8, 4, 8));
  EXPECT_GT(second.latencies().misses(), misses)
      << "different maxpool shapes must not share a latency-cache entry";
}

TEST(TileKeys, ClusterConfigSaltsSharedCache) {
  // The cache is documented as shareable across compilers; compilers with
  // different core counts measure different cycles for the same geometry.
  const Graph g = relu_graph(4096);
  Compiler eight(isa_options());
  const CompiledPlan p8 = eight.compile(g);
  const uint64_t misses = eight.latencies().misses();

  CompileOptions one_core = isa_options();
  one_core.num_cores = 1;
  Compiler single(one_core, eight.shared_latencies());
  const CompiledPlan p1 = single.compile(g);
  EXPECT_GT(single.latencies().misses(), misses)
      << "same geometry under a different cluster config must re-measure";
  EXPECT_NE(p1.steps[0].report.compute_cycles,
            p8.steps[0].report.compute_cycles);
}

TEST(CycleModel, ReluTailElementsAreCosted) {
  // numel % 4 != 0 used to drop the tail word from both the compute
  // measurement and the DMA cost.
  Compiler compiler(isa_options());
  const Graph g_even = relu_graph(8);
  const Graph g_odd = relu_graph(11);  // plans keep a graph reference
  const CompiledPlan even = compiler.compile(g_even);
  const CompiledPlan odd = compiler.compile(g_odd);
  const LayerReport& re = even.steps[0].report;
  const LayerReport& ro = odd.steps[0].report;
  EXPECT_GT(ro.dma_cycles, re.dma_cycles)
      << "11 elements move 3 words of DMA, 8 elements move 2";
  EXPECT_GE(ro.total_cycles, re.total_cycles);

  // numerics always covered the tail; the plan must still execute it
  ExecutionEngine engine;
  Rng rng(3);
  const Tensor8 x = Tensor8::random({1, 11}, rng);
  const NetworkRun run = engine.run(odd, x);
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(run.output[i], std::max<int8_t>(x[i], 0));
  }
}

TEST(LatencyCache, ConcurrentCompilesAreSafeAndSimulateOnce) {
  // Many compilers, one shared cache, racing on the same graph: each
  // unique tile must be simulated exactly once (misses == size) and every
  // plan must carry identical cycle reports.
  const Graph g = scaled_resnet18();
  auto cache = std::make_shared<TileLatencyCache>();
  constexpr int kThreads = 4;
  std::vector<CompiledPlan> plans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Compiler compiler(isa_options(), cache);
      plans[static_cast<size_t>(t)] = compiler.compile(g);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache->misses(), cache->size());
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(plans[static_cast<size_t>(t)].steps.size(),
              plans[0].steps.size());
    EXPECT_EQ(plans[static_cast<size_t>(t)].total_cycles,
              plans[0].total_cycles);
    for (size_t s = 0; s < plans[0].steps.size(); ++s) {
      EXPECT_EQ(plans[static_cast<size_t>(t)].steps[s].report.total_cycles,
                plans[0].steps[s].report.total_cycles);
    }
  }
}

// --- pipelined batch execution ----------------------------------------------

TEST(Batch, PipelinedRunBatchBitExactWithSequentialRunsResnet18) {
  const Graph g = scaled_resnet18();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  const auto inputs = distinct_inputs({16, 16, 4}, 6, 21);

  ExecutionEngine pipelined;
  pipelined.set_workers(4);
  const BatchRun batch = pipelined.run_batch(plan, inputs);

  ExecutionEngine sequential;
  ASSERT_EQ(batch.runs.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const NetworkRun ref = sequential.run(plan, inputs[i]);
    EXPECT_TRUE(batch.runs[i].output == ref.output) << "image " << i;
    EXPECT_EQ(batch.runs[i].total_cycles, ref.total_cycles);
  }
}

TEST(Batch, PipelinedRunBatchBitExactWithSequentialRunsVit) {
  const Graph g = scaled_vit();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  const auto inputs = distinct_inputs({64, 64, 4}, 3, 22);

  ExecutionEngine pipelined;
  pipelined.set_workers(3);
  const BatchRun batch = pipelined.run_batch(plan, inputs);

  ExecutionEngine sequential;
  ASSERT_EQ(batch.runs.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const NetworkRun ref = sequential.run(plan, inputs[i]);
    EXPECT_TRUE(batch.runs[i].output == ref.output) << "image " << i;
    EXPECT_EQ(batch.runs[i].total_cycles, ref.total_cycles);
  }
}

TEST(Batch, CrossImagePipelineNeverSlowerThanSequentialModel) {
  const Graph g = scaled_resnet18();
  Compiler compiler(isa_options());
  const CompiledPlan plan = compiler.compile(g);
  uint64_t prev = 0;
  for (int n : {1, 2, 4, 8}) {
    const uint64_t cycles = ExecutionEngine::modeled_batch_cycles(plan, n);
    EXPECT_GT(cycles, prev);  // more images cost more in total...
    EXPECT_LE(cycles, plan.total_cycles * static_cast<uint64_t>(n))
        << "...but never more than n independent images";
    prev = cycles;
  }
}

TEST(Batch, FusedFcTilingAmortizesWeightDmaAcrossImages) {
  const int tokens = 96, d = 128, hidden = 512;
  const auto weight_dma_per_image = [&](int batch) {
    CompileOptions opt = isa_options();
    opt.batch = batch;
    Compiler compiler(opt);
    const Graph g = ffn_block(tokens, d, hidden, 8, 5);
    const CompiledPlan plan = compiler.compile(g);
    uint64_t dma = 0;
    for (const PlanStep& s : plan.steps) {
      EXPECT_EQ(s.batch_fused, batch > 1);
      dma += s.report.weight_dma_cycles;
    }
    return dma;
  };
  const uint64_t per_image = weight_dma_per_image(1);
  const uint64_t fused4 = weight_dma_per_image(4);
  const uint64_t fused16 = weight_dma_per_image(16);
  EXPECT_LT(fused4, per_image)
      << "batch-fused FC must fetch each weight tile fewer times per image";
  EXPECT_LT(fused16, fused4);
}

TEST(Batch, FusedConvTilingAmortizesWeightDmaAcrossImages) {
  // The conv counterpart of FC batch fusion: a K-outer fused schedule
  // keeps each weight tile resident while it sweeps every image's row
  // tiles, so conv weight DMA per image drops with the batch.
  const auto weight_dma_per_image = [&](int batch) {
    CompileOptions opt = isa_options();
    opt.batch = batch;
    Compiler compiler(opt);
    const CompiledPlan plan = compiler.compile(scaled_resnet18());
    uint64_t dma = 0;
    for (const PlanStep& s : plan.steps) {
      if (s.op != OpType::kConv2d) continue;
      EXPECT_EQ(s.batch_fused, batch > 1);
      dma += s.report.weight_dma_cycles;
    }
    return dma;
  };
  const uint64_t per_image = weight_dma_per_image(1);
  const uint64_t fused4 = weight_dma_per_image(4);
  const uint64_t fused16 = weight_dma_per_image(16);
  EXPECT_LT(fused4, per_image)
      << "batch-fused conv must fetch each weight tile fewer times per image";
  EXPECT_LT(fused16, fused4);
}

TEST(Batch, FusedConvPlanBitExactWithUnfusedPlan) {
  // Conv fusion only reorders the cost model's tile stream; numerics are
  // per-image and must be unchanged.
  const Graph g = scaled_resnet18();
  Compiler unfused(isa_options());
  CompileOptions fopt = isa_options();
  fopt.batch = 3;
  Compiler fused(fopt, unfused.shared_latencies());
  const CompiledPlan p1 = unfused.compile(g);
  const CompiledPlan p3 = fused.compile(g);

  ExecutionEngine engine;
  const auto inputs = distinct_inputs({16, 16, 4}, 3, 24);
  const BatchRun b1 = engine.run_batch(p1, inputs);
  const BatchRun b3 = engine.run_batch(p3, inputs);
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_TRUE(b1.runs[i].output == b3.runs[i].output) << "image " << i;
  }
}

TEST(Batch, RunBatchRejectsSpanMismatchedWithFusedBatch) {
  // A fused plan's tile stream covers exactly options.batch images;
  // serving any other span must throw instead of stamping a mismatched
  // cycle report.
  const Graph g = ffn_block(32, 64, 128, 8, 8);
  CompileOptions opt = isa_options();
  opt.batch = 4;
  Compiler compiler(opt);
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine engine;
  const auto three = distinct_inputs({32, 64}, 3, 25);
  EXPECT_THROW(engine.run_batch(plan, three), Error);
  const auto four = distinct_inputs({32, 64}, 4, 26);
  EXPECT_EQ(engine.run_batch(plan, four).batch_size(), 4);
}

TEST(Batch, FusedPlanBitExactWithUnfusedPlan) {
  // Batch fusion only changes the cost model / tile schedule; FC rows are
  // independent, so outputs must be unchanged image by image.
  const Graph g = ffn_block(96, 128, 512, 8, 6);
  Compiler unfused(isa_options());
  CompileOptions fopt = isa_options();
  fopt.batch = 4;
  Compiler fused(fopt);
  const CompiledPlan p1 = unfused.compile(g);
  const CompiledPlan p4 = fused.compile(g);

  ExecutionEngine engine;
  const auto inputs = distinct_inputs({96, 128}, 4, 23);
  const BatchRun b1 = engine.run_batch(p1, inputs);
  const BatchRun b4 = engine.run_batch(p4, inputs);
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_TRUE(b1.runs[i].output == b4.runs[i].output) << "image " << i;
  }
}

}  // namespace
}  // namespace decimate
