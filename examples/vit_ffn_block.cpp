// Transformer feed-forward block (the part of ViT the paper sparsifies):
// layernorm -> fc (d -> 4d) -> GELU -> fc (4d -> d), at 1:4/1:8/1:16
// sparsity, deployed through the compiler with SW-only and xDecimate
// kernels. These FC layers are exactly the ones found in BERT/T5-style
// models, which is why the paper calls the approach transferable.
//
//   ./examples/vit_ffn_block

#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "nn/prune.hpp"

using namespace decimate;

namespace {

Graph ffn_block(int tokens, int d, int hidden, int m, uint64_t seed) {
  Rng rng(seed);
  Graph g({tokens, d});
  Node ln;
  ln.op = OpType::kLayerNorm;
  ln.name = "ln";
  ln.inputs = {0};
  ln.gamma = Tensor8({d});
  ln.beta = Tensor8({d});
  for (int i = 0; i < d; ++i) {
    ln.gamma[i] = 64;
    ln.beta[i] = 0;
  }
  ln.out_shape = {tokens, d};
  const int x = g.add(std::move(ln));
  auto fc = [&](const char* name, int in, int c, int k, int prune_m) {
    Node n;
    n.op = OpType::kFc;
    n.name = name;
    n.inputs = {in};
    n.fc = FcGeom{.tokens = tokens, .c = c, .k = k};
    n.weights = Tensor8::random({k, c}, rng);
    if (prune_m) nm_prune(n.weights.flat(), k, c, 1, prune_m);
    n.bias = Tensor32({k}, 0);
    n.rq = calibrate_requant(c);
    n.out_shape = {tokens, k};
    return g.add(std::move(n));
  };
  const int up = fc("fc1", x, d, hidden, m);
  Node gelu;
  gelu.op = OpType::kLut;
  gelu.name = "gelu";
  gelu.inputs = {up};
  gelu.lut = build_gelu_lut(0.05f, 0.05f);
  gelu.out_shape = {tokens, hidden};
  const int act = g.add(std::move(gelu));
  fc("fc2", act, hidden, d, m);
  return g;
}

}  // namespace

int main() {
  const int tokens = 196, d = 384, hidden = 1536;
  std::cout << "=== ViT/BERT-style FFN block: " << tokens << " tokens, " << d
            << " -> " << hidden << " -> " << d << " ===\n\n";
  Rng rng(5);
  const Tensor8 input = Tensor8::random({tokens, d}, rng);

  Table t({"config", "Mcyc", "MAC/cyc", "speedup vs dense"});
  ExecutionEngine engine;
  const NetworkRun dense = engine.run(
      Compiler().compile(ffn_block(tokens, d, hidden, 0, 1)), input);
  t.add_row({"dense", Table::num(dense.total_cycles / 1e6, 2),
             Table::num(dense.macs_per_cycle(), 2), "1.00x"});
  for (int m : {4, 8, 16}) {
    for (bool isa : {false, true}) {
      CompileOptions opt;
      opt.enable_isa = isa;
      const NetworkRun run = engine.run(
          Compiler(opt).compile(ffn_block(tokens, d, hidden, m, 1)), input);
      t.add_row({std::string(isa ? "ISA" : "SW") + " 1:" + std::to_string(m),
                 Table::num(run.total_cycles / 1e6, 2),
                 Table::num(run.macs_per_cycle(), 2),
                 Table::num(static_cast<double>(dense.total_cycles) /
                                run.total_cycles, 2) + "x"});
    }
  }
  std::cout << t;

  // Batch-aware FC tiling: compiling the block for a batch fuses the
  // batch dimension into the token dimension, so each weight tile is
  // fetched from L2/L3 once per batch instead of once per image.
  std::cout << "\n=== batch-fused FC tiling (ISA 1:8), per-image amortized ==="
            << "\n\n";
  Table bt({"batch", "fc kcyc/img", "weight-DMA kcyc/img", "batch Mcyc"});
  for (int b : {1, 4, 16}) {
    CompileOptions opt;
    opt.enable_isa = true;
    opt.batch = b;
    Compiler compiler(opt);
    const Graph g = ffn_block(tokens, d, hidden, 8, 1);
    const CompiledPlan plan = compiler.compile(g);
    uint64_t fc_cycles = 0, weight_dma = 0;
    for (const PlanStep& s : plan.steps) {
      if (s.op == OpType::kFc) {
        fc_cycles += s.report.total_cycles;
        weight_dma += s.report.weight_dma_cycles;
      }
    }
    ExecutionEngine engine;
    const std::vector<Tensor8> images(static_cast<size_t>(b), input);
    const BatchRun br = engine.run_batch(plan, images);
    bt.add_row({std::to_string(b), Table::num(fc_cycles / 1e3, 1),
                Table::num(weight_dma / 1e3, 1),
                Table::num(br.batch_cycles / 1e6, 2)});
  }
  std::cout << bt;
  return 0;
}
