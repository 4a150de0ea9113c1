// Extension (paper Sec. 6 future work): energy estimation. Applies the
// per-instruction-class energy model to the ISS opcode histograms of the
// kernels and adds the DMA transfer energy, showing where the sparse
// kernels' energy advantage comes from: fewer executed instructions per
// dense-equivalent MAC and fewer bytes moved per layer.

#include "bench_util.hpp"
#include "exec/tile_runner.hpp"
#include "hw/energy.hpp"

using namespace decimate;
using namespace decimate::bench;

int main() {
  std::cout << "=== Extension: kernel energy (per-instruction-class model) "
               "===\n\n";
  const EnergyModel em;
  const ConvGeom g{.ix = 8, .iy = 8, .c = 128, .k = 64, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  Rng rng(8);
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  Tensor32 bias({g.k}, 0);

  Table t({"kernel", "instr", "compute nJ", "idle nJ", "nJ/MMAC(dense-eq)",
           "vs dense 1x2"});
  double dense_nj = 0.0;
  struct Cfg {
    KernelKind kind;
    int m;
  };
  for (const auto& cfg :
       {Cfg{KernelKind::kConvDense1x2, 0}, Cfg{KernelKind::kConvDense4x2, 0},
        Cfg{KernelKind::kConvSparseSw, 8}, Cfg{KernelKind::kConvSparseIsa, 8},
        Cfg{KernelKind::kConvSparseSw, 16},
        Cfg{KernelKind::kConvSparseIsa, 16}}) {
    Cluster cluster{ClusterConfig{}};
    TileRunner runner(cluster);
    KernelRun run;
    if (kernel_is_sparse(cfg.kind)) {
      Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng);
      nm_prune(w.flat(), g.k, g.fsz(), 1, cfg.m);
      const NmPacked packed = nm_pack(w.flat(), g.k, g.fsz(), cfg.m,
                                      TileRunner::layout_for(cfg.kind));
      run = runner.conv(cfg.kind, g, Requant{1, 8}, input, nullptr, &packed,
                        bias);
    } else {
      Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng);
      run = runner.conv(cfg.kind, g, Requant{1, 8}, input, &w, nullptr,
                        bias);
    }
    const EnergyBreakdown e = em.kernel_energy(run.result);
    const double nj_per_mmac =
        e.total_nj() / (static_cast<double>(run.dense_macs) / 1e6);
    if (dense_nj == 0.0) dense_nj = e.total_nj();
    std::string name = kernel_kind_name(cfg.kind);
    if (cfg.m) name += " 1:" + std::to_string(cfg.m);
    t.add_row({name, std::to_string(run.result.total_instructions),
               Table::num(e.compute_nj, 1), Table::num(e.idle_nj, 1),
               Table::num(nj_per_mmac, 1),
               Table::num(dense_nj / e.total_nj(), 2) + "x"});
  }
  std::cout << t << "\n";

  // DMA energy side: weight bytes per layer at each sparsity
  std::cout << "weight-transfer energy for this layer (L2-resident / "
               "L3-resident):\n";
  for (int m : {0, 4, 8, 16}) {
    const int64_t bytes =
        m ? nm_bytes(g.k, g.fsz(), m, true) : dense_bytes(g.k, g.fsz());
    std::cout << "  " << (m ? "1:" + std::to_string(m) : "dense") << ": "
              << bytes << " B -> " << Table::num(em.dma_nj(bytes, 0), 1)
              << " nJ (L2) / " << Table::num(em.dma_nj(0, bytes), 1)
              << " nJ (L3) per load\n";
  }
  std::cout << "\nthe sparse kernels save energy twice: fewer executed "
               "instructions per dense-\nequivalent MAC, and (paper Sec. 6) "
               "fewer off-chip bytes when weights live in L3.\n";
  return 0;
}
