// Accuracy-vs-sparsity sweep: trains the synthetic-task MLP with N:M
// projected SGD at each sparsity level, quantizes it and deploys it
// through the compiler/executor stack, reporting float and int8 accuracy
// plus the deployed latency and weight memory of each variant.
//
//   ./examples/accuracy_sweep

#include <iostream>

#include "common/table.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "train/trainer.hpp"

using namespace decimate;

int main() {
  std::cout << "Training 2-layer MLPs (32 -> 128 -> 10) on a synthetic "
               "Gaussian-mixture task\nwith N:M projected SGD...\n\n";
  Rng rng(17);
  const SynthDataset train_set = SynthDataset::make(2000, 32, 10, 2.0, rng);
  const SynthDataset test_set = SynthDataset::make(400, 32, 10, 2.0, rng);

  Table t({"sparsity", "float acc", "int8 acc", "cycles", "weights [B]"});
  for (int m : {0, 4, 8, 16}) {
    MlpConfig cfg;
    cfg.nm_m = m;
    Mlp mlp(cfg);
    mlp.train(train_set);
    const double facc = mlp.accuracy(test_set);
    const Graph g = mlp.to_int8_graph(0.05f);
    CompileOptions copt;
    copt.enable_isa = true;
    Compiler compiler(copt);
    const CompiledPlan plan = compiler.compile(g);
    ExecutionEngine engine;
    int correct = 0;
    uint64_t cycles = 0;
    int64_t mem = 0;
    for (int i = 0; i < test_set.size(); ++i) {
      const Tensor8 qx = mlp.quantize_input(test_set.sample(i), 0.05f);
      const NetworkRun run = engine.run(plan, qx);
      int pred = 0;
      for (int k = 1; k < 10; ++k) {
        if (run.output[k] > run.output[pred]) pred = k;
      }
      correct += (pred == test_set.y[static_cast<size_t>(i)]);
      cycles = run.total_cycles;
      mem = run.weight_bytes;
    }
    t.add_row({m == 0 ? "dense" : "1:" + std::to_string(m),
               Table::num(100.0 * facc, 1) + "%",
               Table::num(100.0 * correct / test_set.size(), 1) + "%",
               std::to_string(cycles), std::to_string(mem)});
  }
  std::cout << t << "\n"
            << "expected trend (paper Table 2 analog): accuracy degrades "
               "gently with sparsity\nwhile latency and weight memory drop "
               "sharply.\n";
  return 0;
}
