#pragma once
// Single-tile ISS execution: places operands in L1, fills the args block,
// runs the cluster and reads the result back. This is the one place where
// conv/fc args-block setup, L1 placement and requant plumbing live — the
// compiler uses it for latency measurement, the execution engine for
// verification, and tests, benches and examples to run a single kernel.
//
// Tiles assume "data already in L1", as the paper's kernels do; multi-tile
// layers with DMA double-buffering are planned by exec/compile and costed
// tile-by-tile through this runner.

#include "kernels/kernels.hpp"
#include "nn/layer_geometry.hpp"
#include "nn/nm_format.hpp"
#include "nn/quant.hpp"
#include "sim/cluster.hpp"

namespace decimate {

struct KernelRun {
  Tensor8 output;
  RunResult result;
  int64_t dense_macs = 0;

  double macs_per_cycle() const {
    return result.wall_cycles == 0
               ? 0.0
               : static_cast<double>(dense_macs) /
                     static_cast<double>(result.wall_cycles);
  }
};

class TileRunner {
 public:
  explicit TileRunner(Cluster& cluster) : cluster_(&cluster) {}

  /// Convolution. Dense kinds take `dense_w` ({K, FSZ}); sparse kinds take
  /// `packed` (layout must match the kind). Input is the *logical* tensor
  /// {IY, IX, C}; padding is materialized into L1 by the runner.
  KernelRun conv(KernelKind kind, const ConvGeom& g, const Requant& rq,
                 const Tensor8& input, const Tensor8* dense_w,
                 const NmPacked* packed, const Tensor32& bias);

  /// Fully-connected. Input {T, C}; dense weights {K, C} or packed.
  KernelRun fc(KernelKind kind, const FcGeom& g, const Requant& rq,
               const Tensor8& input, const Tensor8* dense_w,
               const NmPacked* packed, const Tensor32& bias);

  /// Program cache shared by all runners (programs depend only on
  /// (kind, M)). Thread-safe: guarded by an internal mutex; returned
  /// references stay valid for the process lifetime.
  static const Program& program_for(KernelKind kind, int m);

  /// The expected NmLayout for a sparse kernel kind.
  static NmLayout layout_for(KernelKind kind);

  /// Inner hardware-loop trip count for a geometry (dense row length or
  /// padded NZ count).
  static int inner_iters(KernelKind kind, int m, int dense_cols,
                         int nz_padded);

  Cluster& cluster() { return *cluster_; }

 private:
  Cluster* cluster_;
};

}  // namespace decimate
