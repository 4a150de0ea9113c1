#pragma once
// MultiClusterEngine: executes a CompiledPlan sharded across N clusters.
//
// Numerics are bit-exact with the single-cluster ExecutionEngine by
// construction: output-tile shards write disjoint slices of the same
// tensor through the ranged reference ops, and reduction-split FC steps
// (ShardAxis::kFcC) fold int32 partial sums in ascending cluster order on
// top of the bias before the single requant — the same accumulation
// sequence the unsharded kernel performs, regrouped associatively.
//
// Cycles come from the ShardPlan: per-cluster tile streams are pipelined
// independently (the BatchRun tile-stream merge, applied per cluster) and
// synchronized at every stitch/reduce point, giving a critical path,
// per-cluster utilizations, and the interconnect/reduction overhead.
// Shard plans are cached under plan_fingerprint (graph content x options,
// so two shard-aware compiles of different num_clusters never collide).
//
// The engine also models the dual deployment shape, data parallelism:
// instead of splitting one image's tiles across clusters (latency), whole
// images go to clusters round-robin (throughput) — no stitch or reduction
// traffic, per-cluster pipelines modeled independently. The serve
// Dispatcher scores both placements per formed batch (the sharded one
// from the critical path and busy cycles it took from shard_plan() at
// warm time).

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "exec/engine.hpp"
#include "exec/plan.hpp"
#include "exec/worker_pool.hpp"
#include "shard/shard_planner.hpp"

namespace decimate {

/// Result of one sharded execution: the usual NetworkRun (per-layer
/// totals are the sharded critical paths, so they still sum to
/// total_cycles) plus the cluster-level aggregate.
struct ShardedRun {
  NetworkRun run;
  int num_clusters = 1;
  uint64_t critical_path_cycles = 0;   // modeled end-to-end latency
  uint64_t single_cluster_cycles = 0;  // same plan on one cluster
  uint64_t reduction_cycles = 0;       // stitch/reduce share of critical
  std::vector<uint64_t> cluster_busy_cycles;

  double speedup() const {
    return critical_path_cycles
               ? static_cast<double>(single_cluster_cycles) /
                     static_cast<double>(critical_path_cycles)
               : 0.0;
  }
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

class MultiClusterEngine {
 public:
  explicit MultiClusterEngine(int num_clusters);

  /// Execute the plan's graph on `input` across the clusters. The plan
  /// must be unfused (options.batch == 1). Output is bit-exact with
  /// ExecutionEngine::run on the same plan.
  ShardedRun run(const CompiledPlan& plan, const Tensor8& input);

  /// The data-parallel completion model: modeled finish of each of `n`
  /// images assigned round-robin to `clusters` clusters (image i finishes
  /// when its cluster's pipelined prefix does). Used by the serve
  /// Dispatcher to score the mode.
  static std::vector<uint64_t> data_parallel_completions(
      const CompiledPlan& plan, int n, int clusters);

  /// Per-cluster busy cycles of the same round-robin placement (each
  /// cluster's pipelined stream over its own images) — the consumed-
  /// cycles side of the model, the Dispatcher's mode cost.
  static std::vector<uint64_t> data_parallel_busy_cycles(
      const CompiledPlan& plan, int n, int clusters);

  /// The (cached) shard schedule for a plan; builds it on first use.
  /// Plans are keyed by content (plan_fingerprint), so a re-created plan
  /// with identical graph/options reuses the schedule. Every call — hit
  /// or miss, and so every run() — hashes the whole graph, weights
  /// included: keep it off per-request paths (the serve Dispatcher reads
  /// the schedule once, at warm()).
  const ShardPlan& shard_plan(const CompiledPlan& plan);

  int num_clusters() const { return num_clusters_; }

  /// Shard plans built so far (cache misses) — a repeated plan must
  /// shard-plan exactly once.
  int plans() const { return plans_; }

  /// Route shard-slice gemm numerics through the plan's
  /// HostKernelDispatch (ranged sparse/blocked host kernels; default) or
  /// the ranged reference ops. Bit-identical either way.
  void set_use_host_kernels(bool v) { use_host_kernels_ = v; }

 private:
  void exec_gemm_shards(const StepShard& ss, const PlanStep& step,
                        const Node& node, const Tensor8& in,
                        const Tensor8* b_operand, Tensor8& out);
  /// Run the thunks concurrently ("one per cluster") on the persistent
  /// pool and rethrow the first failure. Inline when there is only one.
  void run_parallel(std::vector<std::function<void()>>& thunks);
  WorkerPool& pool();

  int num_clusters_ = 1;
  bool use_host_kernels_ = true;
  ShardPlanner planner_;
  std::unique_ptr<WorkerPool> pool_;  // lazily created, reused across runs
  std::map<uint64_t, ShardPlan> cache_;
  int plans_ = 0;
};

}  // namespace decimate
