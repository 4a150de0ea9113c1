#pragma once
// Sparse pattern recognition and kernel selection — the compiler's pattern
// table (Sec. 4.4, feature 1). Conv/FC nodes whose weights match a 1:M
// pattern (M in {4, 8, 16}) are mapped to the sparse kernels; everything
// else falls back to the dense baselines.

#include <string>

#include "compiler/graph.hpp"
#include "kernels/abi.hpp"

namespace decimate {

struct CompileOptions {
  bool enable_sparse = true;   // recognize N:M patterns at all
  bool enable_isa = false;     // use the xDecimate kernels
  bool pulpnn_dense = true;    // 4x2 PULP-NN for dense convs (else 1x2)
  bool interleaved_weights = true;  // single-DMA weight+index layout (E10)
  bool lockstep = false;       // TCDM-contention simulation mode
  bool xdec_forwarding = true; // XFU forwarding path present
  int num_cores = 8;
  // Batch size the plan is costed for. When > 1, FC tiling fuses the batch
  // dimension into FcGeom::tokens so each weight tile is fetched once per
  // batch instead of once per image, and conv tiling fuses the batch into
  // the OY tile loop (K tiles outer, all images' row tiles swept per
  // weight residency) so conv weight DMA amortizes the same way; reports
  // stay per-image (amortized). Numerics are unaffected — images are
  // independent.
  int batch = 1;
  // Cluster count the plan is sharded across (see shard/; shard_plan()
  // reads it from here). When > 1, the tile search is constrained to
  // produce at least this many tiles per gemm/vector step where the
  // geometry allows, so the shard planner can hand every cluster work. Changes tile schedules (and therefore plan
  // identity — plan_fingerprint salts on it); numerics are unaffected.
  int num_clusters = 1;
  // Run the static plan verifier (src/verify) as a compile post-pass and
  // throw VerifyError when it finds error-level defects. On by default in
  // Debug builds; Release builds opt in explicitly (the serving PlanStore
  // always verifies newly admitted plans regardless of this flag). Like
  // latency_cache_path, this never changes what a plan contains, so it is
  // NOT part of the plan fingerprint.
#ifdef NDEBUG
  bool verify_plans = false;
#else
  bool verify_plans = true;
#endif
  // Optional TileLatencyCache warm file: when non-empty, the Compiler
  // (and PlanStore) pre-load measured tile cycles from this path at
  // construction, so a previously-saved file makes compiles ISS-free
  // across process restarts (TileLatencyCache::save writes it back).
  // Not part of the plan fingerprint — the path never changes what a
  // plan contains, only how fast it is costed.
  std::string latency_cache_path;
};

struct KernelChoice {
  KernelKind kind = KernelKind::kConvDense1x2;
  int m = 0;  // 0 = dense
  bool sparse() const { return m != 0; }
};

/// Decide the kernel implementing a conv/fc/matmul node.
KernelChoice select_kernel(const Node& node, const CompileOptions& opt);

}  // namespace decimate
