// Quickstart: prune a convolution to 1:8, pack it into the N:M format,
// run it on the simulated PULP cluster with the SW-only and xDecimate
// kernels, and check the outputs against the int8 reference.
//
//   ./examples/quickstart

#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "exec/tile_runner.hpp"
#include "nn/prune.hpp"
#include "nn/ref_ops.hpp"

using namespace decimate;

int main() {
  // 1) a 3x3 convolution layer: 8x8x64 input, 32 output channels
  const ConvGeom geom{.ix = 8, .iy = 8, .c = 64, .k = 32, .fx = 3, .fy = 3,
                      .stride = 1, .pad = 1};
  Rng rng(2024);
  const Tensor8 input = Tensor8::random({geom.iy, geom.ix, geom.c}, rng);
  Tensor8 weights = Tensor8::random({geom.k, geom.fsz()}, rng);
  Tensor32 bias({geom.k}, 0);
  const Requant rq{13, 13};  // out = clip8((acc * 13) >> 13)

  // 2) prune to 1:8 (exactly one non-zero per 8 weights) by magnitude
  nm_prune(weights.flat(), geom.k, geom.fsz(), 1, 8);
  std::cout << "weight sparsity after 1:8 pruning: "
            << Table::num(100.0 * sparsity(weights.flat()), 1) << "%\n";

  // 3) pack into the paper's N:M format (values + 4-bit offsets)
  const NmPacked sw_pack = nm_pack(weights.flat(), geom.k, geom.fsz(), 8,
                                   NmLayout::kSw);
  const NmPacked isa_pack = nm_pack(weights.flat(), geom.k, geom.fsz(), 8,
                                    NmLayout::kConvIsaDup);
  std::cout << "dense weights: " << geom.k * geom.fsz() << " B, packed: "
            << sw_pack.total_bytes() << " B (SW), " << isa_pack.total_bytes()
            << " B (ISA, duplicated offsets)\n\n";

  // 4) run dense baseline, SW sparse, and ISA sparse kernels on the cluster
  const Tensor8 expected = conv2d_s8(input, weights, bias, geom, rq);
  Table t({"kernel", "cycles", "MAC/cyc (dense-equiv)", "matches reference"});
  Cluster cluster;  // 8 cores, sequential mode
  TileRunner runner(cluster);

  Tensor8 dense_weights = weights;  // zeros included
  const KernelRun dense = runner.conv(KernelKind::kConvDense1x2, geom, rq,
                                      input, &dense_weights, nullptr, bias);
  t.add_row({"dense 1x2", std::to_string(dense.result.wall_cycles),
             Table::num(dense.macs_per_cycle(), 2),
             dense.output == expected ? "yes" : "NO"});

  const KernelRun sw = runner.conv(KernelKind::kConvSparseSw, geom, rq,
                                   input, nullptr, &sw_pack, bias);
  t.add_row({"sparse SW 1:8", std::to_string(sw.result.wall_cycles),
             Table::num(sw.macs_per_cycle(), 2),
             sw.output == expected ? "yes" : "NO"});

  const KernelRun isa = runner.conv(KernelKind::kConvSparseIsa, geom, rq,
                                    input, nullptr, &isa_pack, bias);
  t.add_row({"sparse ISA 1:8 (xDecimate)",
             std::to_string(isa.result.wall_cycles),
             Table::num(isa.macs_per_cycle(), 2),
             isa.output == expected ? "yes" : "NO"});
  std::cout << t << "\n";
  std::cout << "speedup SW vs dense:  "
            << Table::num(static_cast<double>(dense.result.wall_cycles) /
                              sw.result.wall_cycles, 2)
            << "x\n"
            << "speedup ISA vs dense: "
            << Table::num(static_cast<double>(dense.result.wall_cycles) /
                              isa.result.wall_cycles, 2)
            << "x\n";
  return 0;
}
