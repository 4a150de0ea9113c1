// E9 — ablation of the sparse im2col strategies of Sec. 4.1.2:
//   strategy 2 ("sparse im2col"): gather the NZ activations into compact
//     per-channel buffers, repeated for every output channel;
//   strategy 3 ("decimate im2col", the paper's choice): dense im2col once
//     per pixel pair + per-channel decimation in the inner loop.
// The paper argues strategy 2 explodes the innermost loop; this bench
// quantifies the gap on single layers.

#include "bench_util.hpp"
#include "exec/tile_runner.hpp"

using namespace decimate;
using namespace decimate::bench;

int main() {
  std::cout << "=== Ablation: sparse im2col strategy (Sec. 4.1.2) ===\n\n";
  Table t({"C", "K", "M", "decimate [kcyc]", "sparse-im2col [kcyc]",
           "strategy-2 penalty"});
  Rng rng(5);
  for (int c : {32, 64, 128}) {
    for (int m : {8, 16}) {
      const ConvGeom g{.ix = 8, .iy = 8, .c = c, .k = 16, .fx = 3, .fy = 3,
                       .stride = 1, .pad = 1};
      const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
      Tensor32 bias({g.k}, 0);
      Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng);
      nm_prune(w.flat(), g.k, g.fsz(), 1, m);
      const NmPacked packed = nm_pack(w.flat(), g.k, g.fsz(), m, NmLayout::kSw);

      ClusterConfig ccfg;
      Cluster c1(ccfg), c2(ccfg);
      TileRunner l1(c1), l2(c2);
      const auto decimate_run = l1.conv(KernelKind::kConvSparseSw, g,
                                        Requant{1, 8}, input, nullptr,
                                        &packed, bias);
      const auto gather_run = l2.conv(KernelKind::kConvSparseIm2col, g,
                                      Requant{1, 8}, input, nullptr, &packed,
                                      bias);
      DECIMATE_CHECK(decimate_run.output == gather_run.output,
                     "strategies disagree");
      t.add_row({std::to_string(c), std::to_string(g.k), std::to_string(m),
                 Table::num(decimate_run.result.wall_cycles / 1e3, 1),
                 Table::num(gather_run.result.wall_cycles / 1e3, 1),
                 speedup(gather_run.result.wall_cycles,
                         decimate_run.result.wall_cycles)});
    }
  }
  std::cout << t << "\n"
            << "strategy 2 repeats the activation gather once per output "
               "channel and pays the\n"
            << "extra compact-buffer stores, confirming the paper's choice "
               "of strategy 3.\n";
  return 0;
}
