// E6 — the Sec. 4 instruction-count analysis (Figs. 4/5): static inner-
// loop lengths of every kernel program and the resulting theoretical
// MACs/instruction/core, alongside ISS-measured MACs/instruction on a
// large layer (the gap is the im2col / loop-management overhead the paper
// discusses in Sec. 5.2).

#include "bench_util.hpp"
#include "exec/tile_runner.hpp"

using namespace decimate;
using namespace decimate::bench;

int main() {
  std::cout << "=== Sec. 4 analysis: inner-loop instruction budgets ===\n\n";
  Table t({"kernel", "M", "instr/iter", "MACs/iter", "peak MAC/instr",
           "dense-equiv peak"});

  struct Entry {
    KernelKind kind;
    int m;
  };
  const Entry entries[] = {
      {KernelKind::kConvDense4x2, 0}, {KernelKind::kConvDense1x2, 0},
      {KernelKind::kConvSparseSw, 4}, {KernelKind::kConvSparseSw, 8},
      {KernelKind::kConvSparseSw, 16}, {KernelKind::kConvSparseIsa, 4},
      {KernelKind::kConvSparseIsa, 8}, {KernelKind::kConvSparseIsa, 16},
      {KernelKind::kFcDense, 0},      {KernelKind::kFcSparseSw, 4},
      {KernelKind::kFcSparseSw, 8},   {KernelKind::kFcSparseSw, 16},
      {KernelKind::kFcSparseIsa, 4},  {KernelKind::kFcSparseIsa, 8},
      {KernelKind::kFcSparseIsa, 16},
  };
  for (const auto& e : entries) {
    const int len = expected_inner_loop_length(e.kind, e.m);
    const int macs = macs_per_inner_iter(e.kind, e.m);
    const Program& prog = TileRunner::program_for(e.kind, e.m);
    const int measured = prog.region_length(kInnerBegin, kInnerEnd);
    DECIMATE_CHECK(measured == len, "static length mismatch");
    const double peak = static_cast<double>(macs) / len;
    t.add_row({kernel_kind_name(e.kind), e.m ? std::to_string(e.m) : "-",
               std::to_string(len), std::to_string(macs),
               Table::num(peak, 2),
               Table::num(peak * std::max(e.m, 1), 2)});
  }
  std::cout << t << "\n";
  std::cout << "paper (Sec. 4): conv 4x2 = 2.28, 1x2 = 1.6, SW = 0.36 (0.35 "
               "at 1:4), ISA = 0.66;\n"
            << "fc dense = 1.6, SW = 0.25, ISA = 0.61 dense-equivalent "
               "peaks x M.\n\n";

  // measured on a large layer through the ISS
  std::cout << "ISS-measured MACs/instruction on conv C=128 K=16 (logical "
               "MACs / executed instructions):\n";
  Rng rng(3);
  const ConvGeom g{.ix = 8, .iy = 8, .c = 128, .k = 16, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  ClusterConfig ccfg;
  for (const auto& e :
       {Entry{KernelKind::kConvDense4x2, 0}, Entry{KernelKind::kConvDense1x2, 0},
        Entry{KernelKind::kConvSparseSw, 8},
        Entry{KernelKind::kConvSparseIsa, 8}}) {
    Cluster cluster(ccfg);
    TileRunner runner(cluster);
    const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
    Tensor32 bias({g.k}, 0);
    KernelRun run;
    if (kernel_is_sparse(e.kind)) {
      Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng);
      nm_prune(w.flat(), g.k, g.fsz(), 1, e.m);
      const NmPacked packed = nm_pack(w.flat(), g.k, g.fsz(), e.m,
                                      TileRunner::layout_for(e.kind));
      run = runner.conv(e.kind, g, Requant{1, 8}, input, nullptr, &packed,
                        bias);
    } else {
      Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng);
      run = runner.conv(e.kind, g, Requant{1, 8}, input, &w, nullptr, bias);
    }
    const double logical =
        static_cast<double>(g.macs()) / std::max(e.m, 1);
    std::cout << "  " << kernel_kind_name(e.kind)
              << (e.m ? " 1:" + std::to_string(e.m) : "") << ": "
              << Table::num(logical / run.result.total_instructions, 3)
              << " MACs/instr (theory "
              << Table::num(static_cast<double>(macs_per_inner_iter(e.kind, e.m)) /
                                expected_inner_loop_length(e.kind, e.m),
                            3)
              << ")\n";
  }
  return 0;
}
