#pragma once
// ShardPlanner: partitions a CompiledPlan's per-step tile schedules across
// `num_clusters` PULP-style clusters (the Snitch/SparCE scaling recipe —
// replicate small clusters instead of growing one).
//
// Sharding is a pure cost/placement transform: every tile keeps the cycle
// cost the TileLatencyCache measured for it at compile time, and the
// planner only decides which cluster runs which tiles. Three step shapes:
//
//  - kGemmTiles / kRows: whole tiles are assigned to clusters with a
//    cost-balanced greedy (largest tile first onto the least-loaded
//    cluster). Each cluster pipelines its own slice; outputs of non-root
//    clusters cross the interconnect back to the root L2 (stitch cost).
//  - kFcC: a single-tile FC cannot feed several clusters, so the planner
//    splits the *input-feature* (reduction) axis instead: each cluster
//    computes int32 partial sums over a contiguous C range (costed by a
//    fresh ISS measurement through the plan's own TileLatencyCache), and
//    the root reduces the partials in ascending cluster order before the
//    single requant — the unsharded accumulation, regrouped
//    associatively, so the split would not change a single output bit.
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
#include <memory>
#include <utility>
#include <vector>

#include "exec/compile.hpp"
#include "exec/plan.hpp"
#include "sim/cluster.hpp"
#include "sim/dma.hpp"

namespace decimate {

/// One cluster's share of one plan step.
struct ShardSlice {
  std::vector<int> tiles;  // indices into step.tile_costs / tiles_meta
  std::pair<int, int> c_range{0, 0};  // kFcC only: input-feature range
  uint64_t cycles = 0;     // pipelined slice total on this cluster
  int64_t out_bytes = 0;   // output bytes produced on this cluster
  bool active() const {
    return !tiles.empty() || c_range.second > c_range.first;
  }
};

/// One plan step, sharded across the clusters.
struct StepShard {
  int node_id = 0;
  ShardAxis axis = ShardAxis::kNone;
  std::vector<ShardSlice> slices;  // one per cluster (root = cluster 0)
  uint64_t serial_cycles = 0;   // root-only extras (marshalling, transpose)
  uint64_t reduce_cycles = 0;   // stitch DMA / partial-sum reduction
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
/// pipelines its own slice, clusters sync at every stitch/reduce point).
/// Holds no pointer back to the CompiledPlan: slices address tiles by
/// index, so the schedule applies to any plan with the same content (a
/// plan loaded from a `.plan` artifact included).
struct ShardPlan {
  int num_clusters = 1;
  std::vector<StepShard> steps;  // parallel to plan->steps
  uint64_t critical_path_cycles = 0;  // Σ per-step critical paths
  uint64_t reduction_cycles = 0;      // Σ stitch/reduce overhead (within ^)
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

class ShardPlanner {
 public:
  explicit ShardPlanner(int num_clusters);

  /// Shard `plan` across the planner's clusters. The plan must be
  /// unfused (options.batch == 1) — a batch-fused tile stream interleaves
  /// images, which sharding would tear apart. New kFcC tile shapes are
  /// measured through plan.latencies, so repeated plans re-simulate
  /// nothing.
  ShardPlan plan(const CompiledPlan& plan);

  int num_clusters() const { return num_clusters_; }

 private:
  StepShard shard_tiles(const CompiledPlan& plan, const PlanStep& step);
  StepShard shard_fc_c(const CompiledPlan& plan, const PlanStep& step,
                       const Node& node);
  bool wants_fc_c_split(const PlanStep& step, const Node& node) const;
  Cluster& measure_cluster(const CompileOptions& opt);

  int num_clusters_ = 1;
  std::unique_ptr<Cluster> cluster_;  // kFcC measurement cluster
  ClusterConfig cluster_cfg_;         // config cluster_ was built with
  Rng rng_{0x5AADBEEF};
};

}  // namespace decimate
