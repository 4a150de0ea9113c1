#pragma once
// Dispatcher: picks, per formed batch, how the modeled clusters should
// execute it — and then executes it bit-exactly on the host.
//
// Three cluster placements compete on the modeled MCU (all numerics
// identical to sequential ExecutionEngine::run by construction; only
// cycles differ):
//
//  - kBatchFused:    the batch is chunked to the largest pre-compiled
//                    fused batch sizes and run_batch executes each chunk
//                    on one cluster. Cheapest total cycles (weight DMA
//                    amortizes across the chunk), worst latency (every
//                    member waits for its whole chunk).
//  - kShardedSingle: each image in turn is sharded across all clusters
//                    as the ShardPlanner schedules it. Best latency (the
//                    shard critical path), most total cycles (stitch/
//                    reduce overhead and shard imbalance on every image).
//  - kDataParallel:  whole images round-robin across clusters. Middle
//                    ground: per-image latency of the single-cluster
//                    pipeline, no fusion savings, but n images finish in
//                    ceil(n / clusters) waves.
//
// Selection rule ("best modeled SLO-feasible cycles"): among the modes
// whose modeled per-request latencies all meet the SLO deadline, take the
// one consuming the fewest total cluster-busy cycles (the energy/cost
// axis the paper's per-request framing cares about); when no mode is
// feasible, take the one hitting the most deadlines, tie-broken by the
// smaller worst-case latency. A loose SLO therefore picks batch-fused
// plans, a tight SLO sharded single-image execution, and a mid-range SLO
// over a deep batch data-parallel placement.
//
// The chosen ServeMode is the modeled placement only: ServedStats' mode,
// group_size and completion cycles report what evaluate() modeled for it.
// Since every placement is bit-exact, the host always executes the batch
// one way — as the fused chunks of the kBatchFused decomposition on a
// single ExecutionEngine — whatever mode was picked.
//
// Every plan comes from the PlanStore; after Dispatcher::warm no dispatch
// compiles anything. warm() also fills the model's ModelCosts, the
// modeled cycles that do not depend on arrivals (each fused chunk size,
// one sharded image's critical path and busy cycles), so evaluate() reads
// a table instead of re-deriving them — in particular it never re-plans
// the shard schedule.
//
// If run_batch ever reports a fused-batch mismatch (BatchMismatchError —
// the structured error proves the condition is recoverable, unlike a bare
// Error), the dispatcher re-runs the chunk image by image on the unfused
// plan instead of failing the batch, and restamps the affected stats when
// the modeled placement is kBatchFused.
//
// serve_trace is the modeled-cycle serving loop over a complete request
// trace: a Batcher forms batches from arrival cycles alone, each batch
// dispatches once the modeled engine is free (free_at advances by each
// batch's modeled makespan), and this Dispatcher picks its placement.
// Every decision is a function of the trace, so serving the same trace
// twice yields identical batches, modes, stats and bit-exact outputs.
// WallClockServer (wallclock.hpp) serves live requests on wall time.

#include <map>
#include <span>
#include <vector>

#include "exec/engine.hpp"
#include "serve/batcher.hpp"
#include "serve/plan_store.hpp"
#include "serve/serving.hpp"

namespace decimate {

struct DispatchConfig {
  /// Modeled clusters available to the sharded and data-parallel modes.
  int num_clusters = 1;
  /// Fused batch sizes the store pre-compiles; chunking greedily takes
  /// the largest size <= the remaining batch (1 is always available), so
  /// a batch larger than any fused plan splits instead of failing.
  std::vector<int> fused_batches = {1, 2, 4, 8};
};

/// Modeled outcome of one mode for one formed batch (before executing).
struct ModeEval {
  ServeMode mode = ServeMode::kBatchFused;
  bool feasible = false;      // every request meets the SLO deadline
  int deadline_hits = 0;
  uint64_t cost_cycles = 0;   // total cluster-busy cycles consumed
  uint64_t makespan_cycles = 0;       // dispatch -> last completion
  uint64_t worst_latency_cycles = 0;  // max per-request completion-arrival
  std::vector<uint64_t> completion_cycles;  // per request, absolute
  std::vector<int> group_size;              // per request (fused chunk...)
};

/// A dispatched batch: per-request results (request order) plus when the
/// modeled clusters become free again.
struct DispatchResult {
  std::vector<Served> served;
  ServeMode mode = ServeMode::kBatchFused;
  uint64_t finish_cycles = 0;
};

class Dispatcher {
 public:
  Dispatcher(PlanStore& store, const DispatchConfig& cfg);

  /// Score all modes for a batch of `arrivals` dispatched at
  /// `dispatch_cycles` (pure cycle model — nothing executes; the model
  /// must be warm()ed). Exposed so tests and benches can probe the
  /// decision boundaries directly.
  std::vector<ModeEval> evaluate(int model, int batch_size,
                                 const std::vector<uint64_t>& arrivals,
                                 uint64_t dispatch_cycles,
                                 const SloConfig& slo);

  /// The winning mode index under the selection rule above.
  static size_t choose(const std::vector<ModeEval>& evals);

  /// Model a formed batch under the selection rule and execute it as
  /// fused chunks; results are in request order and bit-exact with
  /// sequential ExecutionEngine::run. Takes the batch by value: the
  /// inputs are consumed (moved into the chunks), never deep-copied on
  /// the serving path. The time evaluate() takes is recorded per dispatch
  /// in the serve.evaluate_ns histogram.
  DispatchResult dispatch(FormedBatch batch, const SloConfig& slo);

  /// Run one fused chunk, recovering from a fused-batch mismatch: if
  /// `chunk_plan` turns out to be fused for a different batch than
  /// `inputs` (a mis-warmed or externally shared store), the structured
  /// BatchMismatchError proves the condition is recoverable and the
  /// chunk re-runs image by image on `single_plan`. Returns outputs in
  /// input order and reports the group size that actually executed plus
  /// each image's modeled completion offset from chunk start (all equal
  /// on the fused path; serial prefixes on the fallback). Static and
  /// public so the recovery path is directly testable.
  static std::vector<Tensor8> run_chunk_with_fallback(
      ExecutionEngine& engine, const CompiledPlan& chunk_plan,
      const CompiledPlan& single_plan, std::span<const Tensor8> inputs,
      int& group_size, std::vector<uint64_t>& completion_offsets);

  /// Pre-compile every plan this dispatcher can request for `model`
  /// (all fused batch sizes at one cluster, the shard-aware single-image
  /// plan that models kShardedSingle, and its shard schedule), so serving
  /// never compiles, and fill the model's ModelCosts. Not thread-safe
  /// against concurrent evaluate()/dispatch() calls: warm first.
  void warm(int model);

  /// Greedy fused chunking of n requests: largest configured size <= rest.
  /// The one decomposition both the kBatchFused model and host execution
  /// follow.
  std::vector<int> fused_chunks(int n) const;

  /// Modeled cycles of the fused chunks a batch of n runs as on the host
  /// (Σ over fused_chunks(n), read from the cost table).
  uint64_t fused_cycles(int model, int n) const;

  const DispatchConfig& config() const { return cfg_; }
  PlanStore& store() { return store_; }

 private:
  /// The modeled costs of one model that do not depend on arrivals,
  /// computed once by warm().
  struct ModelCosts {
    /// Modeled cycles of one fused chunk, per configured fused batch size.
    std::map<int, uint64_t> chunk_cycles;
    /// kShardedSingle: one image's shard critical path, and the
    /// cluster-busy cycles it consumes summed over clusters.
    uint64_t shard_critical_cycles = 0;
    uint64_t shard_busy_cycles = 0;
  };

  /// The warm-time cost table of `model`; an Error if it was not warmed.
  const ModelCosts& costs(int model) const;
  void exec_fused(FormedBatch& batch, const SloConfig& slo,
                  DispatchResult& out);

  PlanStore& store_;
  DispatchConfig cfg_;
  ExecutionEngine engine_;
  std::map<int, ModelCosts> costs_;  // per warmed model
};

/// Serve `trace` (arrival cycles nondecreasing, or an Error is thrown) on
/// the modeled-cycle timeline under `slo`. Returns every request in
/// dispatch order; stats.id re-associates results with the trace.
std::vector<Served> serve_trace(Dispatcher& dispatcher, const SloConfig& slo,
                                std::vector<Request> trace);

}  // namespace decimate
