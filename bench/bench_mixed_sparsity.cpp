// Extension (paper Sec. 6 future work): per-layer variable sparsity.
// The pattern table recognizes each layer's 1:M independently, so stages
// can mix patterns freely. Early stages are accuracy-critical (keep them
// at 1:4 or dense); late stages hold most parameters (prune them harder)
// — the classic mixed-sparsity recipe, here quantified for latency and
// memory on ResNet18 with the xDecimate kernels.

#include "bench_util.hpp"

using namespace decimate;
using namespace decimate::bench;

int main() {
  std::cout << "=== Extension: per-stage variable sparsity on ResNet18 ===\n\n";
  Rng rng(21);
  const Tensor8 input = Tensor8::random({32, 32, 4}, rng);

  struct Cfg {
    const char* name;
    std::vector<int> stages;
  };
  const Cfg cfgs[] = {
      {"dense", {0, 0, 0, 0}},
      {"uniform 1:4", {4, 4, 4, 4}},
      {"uniform 1:8", {8, 8, 8, 8}},
      {"uniform 1:16", {16, 16, 16, 16}},
      {"ramp 0/4/8/16", {0, 4, 8, 16}},
      {"ramp 4/8/16/16", {4, 8, 16, 16}},
      {"late-only 0/0/8/16", {0, 0, 8, 16}},
  };
  Table t({"config", "Mcyc", "MAC/cyc", "mem[MB]", "vs dense"});
  uint64_t base = 0;
  for (const auto& cfg : cfgs) {
    Resnet18Options ropt;
    ropt.per_stage_m = cfg.stages;
    const NetworkRun run = ExecutionEngine().run(
        Compiler(sparse_options(true)).compile(build_resnet18(ropt)), input);
    if (base == 0) base = run.total_cycles;
    t.add_row({cfg.name, mcyc(run.total_cycles),
               Table::num(run.macs_per_cycle(), 2),
               Table::num(run.weight_bytes / 1e6, 2),
               speedup(base, run.total_cycles)});
  }
  std::cout << t << "\n"
            << "ramped configurations recover most of the uniform-1:16 "
               "latency and memory while\n"
            << "keeping the accuracy-critical early stages dense or lightly "
               "pruned.\n";
  return 0;
}
