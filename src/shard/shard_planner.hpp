#pragma once
// shard_plan: partitions a CompiledPlan's per-step tile schedules across
// the plan's own `options.num_clusters` PULP-style clusters (the
// Snitch/SparCE scaling recipe — replicate small clusters instead of
// growing one).
//
// Sharding is a pure function of the plan: every tile keeps the cycle
// cost the compiler recorded for it, and the planner only decides which
// cluster runs which tiles. It reads plan data alone — no ISS, no
// simulated memory — so a plan loaded from a `.plan` artifact shards
// exactly like the plan that was published. Two step shapes:
//
//  - kGemmTiles / kRows: whole tiles are assigned to clusters with a
//    cost-balanced greedy (largest tile first onto the least-loaded
//    cluster). Each cluster pipelines its own slice; outputs of non-root
//    clusters cross the interconnect back to the root L2 (stitch cost,
//    from DMA cost arithmetic). A step with fewer tiles than clusters —
//    a single-tile FC included — leaves the other clusters idle.
//  - kNone: serial / marshalling / whole-tensor steps run on the root.
//
// With num_clusters == 1 the plan degenerates to the unsharded schedule:
// critical_path_cycles == CompiledPlan::total_cycles exactly.
//
// The sharded placement is modeled, not executed: the host runs every
// plan step whole on ExecutionEngine (a shard-aware compile changes
// tiles, not numerics), the serve Dispatcher reads a ShardPlan's critical
// path and busy cycles at warm() to score kShardedSingle, and
// verify_shard (verify/verify.hpp) checks a schedule's slices statically.

#include <cstdint>
#include <vector>

#include "exec/plan.hpp"

namespace decimate {

/// One cluster's share of one plan step.
struct ShardSlice {
  std::vector<int> tiles;  // indices into step.tile_costs / tiles_meta
  uint64_t cycles = 0;     // pipelined slice total on this cluster
  int64_t out_bytes = 0;   // output bytes produced on this cluster
  bool active() const { return !tiles.empty(); }
};

/// One plan step, sharded across the clusters.
struct StepShard {
  int node_id = 0;
  ShardAxis axis = ShardAxis::kNone;
  std::vector<ShardSlice> slices;  // one per cluster (root = cluster 0)
  uint64_t serial_cycles = 0;   // root-only extras (marshalling, transpose)
  uint64_t reduce_cycles = 0;   // stitch DMA of non-root outputs
  uint64_t critical_cycles = 0; // max over slices + serial + reduce
  int active_clusters() const {
    int n = 0;
    for (const ShardSlice& s : slices) n += s.active() ? 1 : 0;
    return n;
  }
};

/// The sharded schedule of a whole plan: per-step assignments plus the
/// aggregate cycle view (per-cluster busy streams merged the same way
/// BatchRun::batch_cycles merges per-image tile streams — each cluster
/// pipelines its own slice, clusters sync at every stitch point).
/// Holds no pointer back to the CompiledPlan: slices address tiles by
/// index, so the schedule applies to any plan with the same content (a
/// plan loaded from a `.plan` artifact included).
struct ShardPlan {
  int num_clusters = 1;
  std::vector<StepShard> steps;  // parallel to plan->steps
  uint64_t critical_path_cycles = 0;  // Σ per-step critical paths
  uint64_t reduction_cycles = 0;      // Σ stitch overhead (within ^)
  std::vector<uint64_t> cluster_busy_cycles;  // Σ own-slice cycles

  double utilization(int cluster) const {
    return critical_path_cycles
               ? static_cast<double>(
                     cluster_busy_cycles[static_cast<size_t>(cluster)]) /
                     static_cast<double>(critical_path_cycles)
               : 0.0;
  }
  double avg_utilization() const {
    double sum = 0.0;
    for (size_t c = 0; c < cluster_busy_cycles.size(); ++c) {
      sum += utilization(static_cast<int>(c));
    }
    return cluster_busy_cycles.empty()
               ? 0.0
               : sum / static_cast<double>(cluster_busy_cycles.size());
  }
};

/// Shard `plan` across the clusters it was compiled for
/// (plan.options.num_clusters, which must be >= 1). The plan must be
/// unfused (options.batch == 1) — a batch-fused tile stream interleaves
/// images, which sharding would tear apart.
ShardPlan shard_plan(const CompiledPlan& plan);

}  // namespace decimate
