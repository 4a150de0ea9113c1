// E4 — Table 2 (ViT-Small/16 @224, CIFAR-10 in the paper): end-to-end
// deployment with the FFN FC layers sparsified. Accuracy column = paper's
// recorded values (see DESIGN.md); latency/memory measured here.

#include "bench_util.hpp"

using namespace decimate;
using namespace decimate::bench;

int main() {
  std::cout << "=== Table 2: ViT-Small/16 @ 224 (FFN sparsified) ===\n\n";
  Rng rng(12);
  const Tensor8 input = Tensor8::random({224, 224, 4}, rng);

  struct Row {
    std::string name;
    const char* paper_acc;
    NetworkRun run;
  };
  std::vector<Row> rows;

  auto run_model = [&](int m, const CompileOptions& opt) {
    VitOptions vopt;
    vopt.sparsity_m = m;
    return ExecutionEngine().run(Compiler(opt).compile(build_vit(vopt)), input);
  };

  rows.push_back({"Dense", "95.59*", run_model(0, pulpnn_options())});
  for (int m : {4, 8, 16}) {
    const char* acc = (m == 4) ? "95.73*" : (m == 8) ? "95.02*" : "95.17*";
    rows.push_back({"1:" + std::to_string(m) + " SW", acc,
                    run_model(m, sparse_options(false))});
    rows.push_back({"1:" + std::to_string(m) + " ISA", acc,
                    run_model(m, sparse_options(true))});
  }

  Table t({"model", "acc[%]", "MAC/cyc", "Mcyc", "mem[MB]", "vs dense"});
  const uint64_t base = rows[0].run.total_cycles;
  for (const auto& r : rows) {
    t.add_row({r.name, r.paper_acc, Table::num(r.run.macs_per_cycle(), 2),
               mcyc(r.run.total_cycles),
               Table::num(static_cast<double>(r.run.weight_bytes) / 1e6, 2),
               speedup(base, r.run.total_cycles)});
  }
  std::cout << t << "\n"
            << "*accuracy values are the paper's measured CIFAR-10 results "
               "(Table 2).\n\n"
            << "paper reference (Table 2): dense 975.23 Mcyc @ 4.65; SW "
               "1:4/8/16 = 944/719/598 Mcyc\n"
            << " (1.03/1.36/1.63x); ISA = 681/607/540 Mcyc "
               "(1.43/1.61/1.81x); mem 21.59 ->\n"
            << " 11.86/10.09/8.76 MB. Our integer attention kernels are "
               "cheaper than the paper's\n"
            << " Deeploy ops, so absolute MAC/cyc is higher; the "
               "sparse-vs-dense ratios are the\n"
            << " reproduced quantity.\n";
  return 0;
}
