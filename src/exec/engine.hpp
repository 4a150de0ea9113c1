#pragma once
// ExecutionEngine: executes a CompiledPlan over one input or a batch.
//
// The plan is immutable and shareable: one engine can serve many inputs
// (run_batch), and many engines can serve one plan. Numerics come from
// the reference ops (bit-exact mirrors of the ISS kernels, enforced by
// the kernel test suite and the optional verify mode); cycle and memory
// reports were fixed at compile time, so no ISS simulation happens on the
// execution path — each unique (kernel, tile geometry) was simulated
// exactly once when the plan was built, however large the batch.
//
// run_batch is a software pipeline: images advance through the plan's
// steps concurrently on a worker pool (layer i+1 of image n overlaps
// layer i of image n+1), and the BatchRun cycle model merges the
// per-step tile streams across images so DMA ramp-in/out overlaps
// instead of summing independent per-image totals. A one-image batch
// has no second image to overlap, so it splits its gemm steps over the
// same pool instead (the intra-image path).

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "exec/compile.hpp"
#include "exec/worker_pool.hpp"
#include "sim/cluster.hpp"

namespace decimate {

/// Aggregate of a pipelined batch execution. Per-image outputs and
/// reports are bit-exact with N sequential run() calls; the batch cycle
/// model additionally accounts cross-image DMA/compute overlap.
struct BatchRun {
  std::vector<NetworkRun> runs;  // one per input, in input order

  /// Modeled cycles for the whole batch under cross-image double
  /// buffering: tile streams of consecutive images/layers merge into one
  /// DMA/compute pipeline (image-major; batch-fused FC steps contribute
  /// their whole-batch stream once per compiled batch).
  uint64_t batch_cycles = 0;

  /// Σ independent per-image totals — the no-overlap baseline.
  uint64_t sequential_cycles = 0;

  int batch_size() const { return static_cast<int>(runs.size()); }
  double cycles_per_image() const {
    return runs.empty() ? 0.0
                        : static_cast<double>(batch_cycles) /
                              static_cast<double>(runs.size());
  }
  double pipeline_speedup() const {
    return batch_cycles ? static_cast<double>(sequential_cycles) /
                              static_cast<double>(batch_cycles)
                        : 0.0;
  }
};

class ExecutionEngine {
 public:
  ExecutionEngine() = default;

  /// Execute the plan's graph on `input` on the calling thread; returns
  /// the last node's output plus the cycle/memory report. Thread-safe
  /// while verify mode is off. A one-image run_batch is the parallel
  /// form of this call.
  NetworkRun run(const CompiledPlan& plan, const Tensor8& input);

  /// Execute the plan over a batch of independent inputs on a worker
  /// pool; outputs are bit-exact with per-image run() calls. Two or more
  /// images run one pool task each; a single image runs its gemm steps
  /// split set_workers ways over the same pool (steps below the
  /// intra-image MAC floor stay serial). A batch-fused plan
  /// (options.batch > 1) only serves spans of exactly that size —
  /// anything else throws an Error rather than stamping mismatched cycle
  /// reports. Concurrent run_batch calls on one engine are safe but
  /// serialize on the shared per-engine pool (jobs never interleave);
  /// callers that want parallel batches should use one engine per caller.
  BatchRun run_batch(const CompiledPlan& plan,
                     std::span<const Tensor8> inputs);

  /// Threads for run_batch, whatever the batch size: image tasks for a
  /// batch of two or more, the split width of a one-image batch. 0
  /// (default) = hardware concurrency. Verify mode always runs
  /// single-threaded (the verify cluster is shared state). Threads live
  /// in a lazily-created per-engine WorkerPool reused across batches — a
  /// serving loop pays thread spawn once, not per formed batch.
  void set_workers(int n) { workers_ = n; }

  /// Minimum step.report.macs for a one-image run_batch to split a step
  /// — tiny layers stay serial (fork/join overhead would beat the win).
  /// Default 1M MACs.
  void set_intra_mac_floor(int64_t macs) { intra_mac_floor_ = macs; }

  /// Route gemm numerics through the plan's HostKernelDispatch (sparse
  /// N:M gather kernels / blocked dense loops; default) or through the
  /// scalar reference ops. Outputs are bit-identical either way — the
  /// toggle exists for baselines and oracle comparisons.
  void set_use_host_kernels(bool v) { use_host_kernels_ = v; }
  bool use_host_kernels() const { return use_host_kernels_; }

  /// Test mode: single-tile conv/fc layers are additionally replayed on
  /// the ISS with the real data (using the plan's pre-packed weights) and
  /// compared against the reference.
  void set_verify_with_sim(bool v) { verify_with_sim_ = v; }

  /// The BatchRun cycle model for `n` images of `plan`, exposed for
  /// benches and tests: per-step tile streams are concatenated (with
  /// flushes at serialized/non-pipelined steps) and costed as one
  /// double-buffered pipeline.
  static uint64_t modeled_batch_cycles(const CompiledPlan& plan, int n);

 private:
  /// run() with an explicit split width for the gemm steps.
  NetworkRun run_split(const CompiledPlan& plan, const Tensor8& input,
                       int parts);
  void exec_gemm_node(const CompiledPlan& plan, const PlanStep& step,
                      const Node& node, const Tensor8& in,
                      const Tensor8* b_operand, int parts, Tensor8& out);
  static int hardware_threads();
  Cluster& verify_cluster(const CompileOptions& opt);
  std::shared_ptr<WorkerPool> worker_pool(int target);

  bool verify_with_sim_ = false;
  bool use_host_kernels_ = true;
  int workers_ = 0;
  int64_t intra_mac_floor_ = int64_t{1} << 20;
  std::mutex pool_mu_;  // guards pool_ swaps; callers hold their own ref
  std::shared_ptr<WorkerPool> pool_;  // lazily created, reused per batch
  std::unique_ptr<Cluster> verify_cluster_;
  ClusterConfig verify_cfg_;  // config the verify cluster was built with
};

}  // namespace decimate
