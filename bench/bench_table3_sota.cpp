// E5 — Table 3: comparison with the state of the art in sparse DNN
// acceleration on MCUs. The literature rows are recorded constants from
// the cited papers (as in the paper's own table); the ResNet18 rows are
// measured on this simulator at the matching sparsity levels.

#include "bench_util.hpp"
#include "hw/xfu_area.hpp"

using namespace decimate;
using namespace decimate::bench;

int main() {
  std::cout << "=== Table 3: comparison with the state of the art ===\n\n";
  Rng rng(13);
  const Tensor8 input = Tensor8::random({32, 32, 4}, rng);

  auto run_model = [&](int m, const CompileOptions& opt) {
    Resnet18Options ropt;
    ropt.sparsity_m = m;
    return ExecutionEngine().run(Compiler(opt).compile(build_resnet18(ropt)),
                                 input);
  };

  // measured: speedups of our ResNet18 vs the dense 1x2 baseline (the
  // paper's Table 3 reference; 66.63/37.57 = 1.77 etc.)
  const auto dense = run_model(0, dense_1x2_options());
  const auto sw8 = run_model(8, sparse_options(false));    // 87.5% sparsity
  const auto sw16 = run_model(16, sparse_options(false));  // 93.75%
  const auto isa4 = run_model(4, sparse_options(true));    // 75%
  const auto isa16 = run_model(16, sparse_options(true));
  const auto sw16_for_isa = sw16;  // SW-only baseline for the ISA row

  const XfuAreaModel area;

  Table t({"benchmark", "sparsity", "speedup", "area[%]", "source"});
  t.add_row({"LeNet", "93.28%", "3.51x", "-", "Yu et al. 2017 (recorded)"});
  t.add_row({"ConvNet", "59.9%", "1.38x", "-", "Yu et al. 2017 (recorded)"});
  t.add_row({"LeNet300", "93.07%", "9.17x", "-", "Yu et al. 2017 (recorded)"});
  t.add_row({"DS-CNN", "90%", "1.71x", "-", "Trommer et al. 2021 (recorded)"});
  t.add_row({"ResNet50", "75%", "1.82x+", "n.a.",
             "Titopoulos et al. 2023 (recorded)"});
  t.add_row({"DenseNet", "75%", "2.14x+", "n.a.",
             "Titopoulos et al. 2023 (recorded)"});
  t.add_row({"InceptionV3", "75%", "1.92x+", "n.a.",
             "Titopoulos et al. 2023 (recorded)"});
  t.add_row({"spMV (SSSR)", "95.7%", "5x+", "44",
             "Scheffler et al. 2023 (recorded)"});
  t.add_row({"ResNet18-SW (ours)", "87.5-93.75%",
             speedup(dense.total_cycles, sw8.total_cycles) + "-" +
                 speedup(dense.total_cycles, sw16.total_cycles),
             "-", "measured"});
  t.add_row({"ResNet18-ISA (ours)", "75-93.75%",
             speedup(dense.total_cycles, isa4.total_cycles) + "-" +
                 speedup(dense.total_cycles, isa16.total_cycles),
             Table::num(100.0 * area.overhead_fraction(), 1), "measured"});
  std::cout << t << "\n";
  std::cout << "+ = speedup relative to a SW-only sparse baseline (as in the "
               "paper's table).\n";
  std::cout << "ours, ISA vs SW-only sparse at 75% (1:4): "
            << speedup(run_model(4, sparse_options(false)).total_cycles,
                       isa4.total_cycles)
            << "  (paper: 1.82x at iso-sparsity)\n";
  std::cout << "ours, ISA vs SW-only sparse at 93.75% (1:16): "
            << speedup(sw16_for_isa.total_cycles, isa16.total_cycles)
            << "  (paper: 1.39x)\n";
  std::cout << "paper reference rows (Table 3): ResNet18-SW 1.77-3.10x, "
               "ResNet18-ISA 1.77-4.31x @ 5% area\n";
  return 0;
}
