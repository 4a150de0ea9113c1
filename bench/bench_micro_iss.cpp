// E14 — google-benchmark micro-benchmarks of the simulator itself:
// interpreter throughput (simulated instructions per host second) and
// per-kernel cycle costs at fixed geometries. These gate the usability of
// the ISS for the end-to-end experiments.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "exec/tile_runner.hpp"
#include "isa/builder.hpp"
#include "nn/prune.hpp"
#include "sim/cluster.hpp"

namespace decimate {
namespace {

void BM_IssAluLoop(benchmark::State& state) {
  KernelBuilder b;
  using namespace reg;
  b.li(t0, 1000);
  b.hw_loop(0, t0, [&] {
    b.addi(a1, a1, 1);
    b.xor_(a2, a2, a1);
    b.add(a3, a3, a2);
    b.srli(a4, a3, 3);
  });
  b.barrier();
  b.halt();
  const Program prog = b.build();
  ClusterConfig cfg;
  cfg.num_cores = 1;
  Cluster cluster(cfg);
  uint64_t instructions = 0;
  for (auto _ : state) {
    const RunResult res = cluster.run(prog, 0);
    instructions += res.total_instructions;
  }
  state.counters["sim_instr_per_s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssAluLoop);

void BM_ConvKernel(benchmark::State& state) {
  const auto kind = static_cast<KernelKind>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const ConvGeom g{.ix = 8, .iy = 8, .c = 64, .k = 16, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  Rng rng(1);
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  Tensor32 bias({g.k}, 0);
  Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng);
  if (m) nm_prune(w.flat(), g.k, g.fsz(), 1, m);
  NmPacked packed;
  if (m) {
    packed = nm_pack(w.flat(), g.k, g.fsz(), m,
                     TileRunner::layout_for(kind));
  }
  Cluster cluster{ClusterConfig{}};
  TileRunner runner(cluster);
  uint64_t cycles = 0, instructions = 0;
  for (auto _ : state) {
    const KernelRun run =
        m ? runner.conv(kind, g, Requant{1, 8}, input, nullptr, &packed,
                        bias)
          : runner.conv(kind, g, Requant{1, 8}, input, &w, nullptr, bias);
    cycles = run.result.wall_cycles;
    instructions += run.result.total_instructions;
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  state.counters["sim_instr_per_s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvKernel)
    ->Args({static_cast<int>(KernelKind::kConvDense4x2), 0})
    ->Args({static_cast<int>(KernelKind::kConvDense1x2), 0})
    ->Args({static_cast<int>(KernelKind::kConvSparseSw), 8})
    ->Args({static_cast<int>(KernelKind::kConvSparseIsa), 8})
    ->Args({static_cast<int>(KernelKind::kConvSparseIsa), 16});

void BM_FcKernel(benchmark::State& state) {
  const auto kind = static_cast<KernelKind>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const FcGeom g{.tokens = 4, .c = 1024, .k = 64};
  Rng rng(2);
  const Tensor8 input = Tensor8::random({g.tokens, g.c}, rng);
  Tensor32 bias({g.k}, 0);
  Tensor8 w = Tensor8::random({g.k, g.c}, rng);
  if (m) nm_prune(w.flat(), g.k, g.c, 1, m);
  NmPacked packed;
  if (m) {
    packed = nm_pack(w.flat(), g.k, g.c, m, TileRunner::layout_for(kind));
  }
  Cluster cluster{ClusterConfig{}};
  TileRunner runner(cluster);
  uint64_t cycles = 0;
  for (auto _ : state) {
    const KernelRun run =
        m ? runner.fc(kind, g, Requant{1, 8}, input, nullptr, &packed, bias)
          : runner.fc(kind, g, Requant{1, 8}, input, &w, nullptr, bias);
    cycles = run.result.wall_cycles;
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_FcKernel)
    ->Args({static_cast<int>(KernelKind::kFcDense), 0})
    ->Args({static_cast<int>(KernelKind::kFcSparseSw), 8})
    ->Args({static_cast<int>(KernelKind::kFcSparseIsa), 8});

void BM_LockstepOverhead(benchmark::State& state) {
  const bool lockstep = state.range(0) != 0;
  const ConvGeom g{.ix = 8, .iy = 8, .c = 32, .k = 8, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  Rng rng(3);
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  Tensor32 bias({g.k}, 0);
  Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng);
  ClusterConfig cfg;
  cfg.lockstep = lockstep;
  Cluster cluster(cfg);
  TileRunner runner(cluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner.conv(KernelKind::kConvDense1x2, g, Requant{1, 8}, input, &w,
                    nullptr, bias));
  }
}
BENCHMARK(BM_LockstepOverhead)->Arg(0)->Arg(1);

}  // namespace
}  // namespace decimate

BENCHMARK_MAIN();
