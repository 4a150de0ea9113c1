#pragma once
// Compiler: lowers a Graph into an immutable CompiledPlan (see plan.hpp).
//
// This is the offline half of the paper's pipeline — pattern matching,
// kernel selection (Sec. 4.4 feature 1), sparsity-aware L1 tiling
// (feature 2), N:M weight packing, weight residency, and the ISS-backed
// cycle model with DMA double-buffering. Each unique (kernel, tile
// geometry) is simulated once and memoized in a shared TileLatencyCache,
// so compiling a family of graphs — or re-compiling the same graph —
// never repeats a simulation.

#include <memory>

#include "common/rng.hpp"
#include "exec/latency_cache.hpp"
#include "exec/plan.hpp"
#include "sim/cluster.hpp"
#include "sim/dma.hpp"

namespace decimate {

/// Cluster-config salt for TileLatencyCache keys: measured cycles depend
/// on the core count / lockstep / forwarding configuration, and the cache
/// may be shared between compilers with different options.
int tile_cfg_salt(const CompileOptions& opt);

class Compiler {
 public:
  /// `latencies` may be shared between compilers; a fresh cache is created
  /// when omitted.
  explicit Compiler(const CompileOptions& opt = {},
                    std::shared_ptr<TileLatencyCache> latencies = nullptr);

  /// Lower `graph` into a plan. The graph must outlive the plan (steps
  /// reference its weights).
  CompiledPlan compile(const Graph& graph);

  const CompileOptions& options() const { return opt_; }
  const TileLatencyCache& latencies() const { return *cache_; }
  std::shared_ptr<TileLatencyCache> shared_latencies() const { return cache_; }

  /// Persist the latency cache to options().latency_cache_path (which
  /// must be set); the next Compiler constructed with the same path
  /// compiles ISS-free for every shape measured so far.
  size_t save_latencies() const;

  /// Where a graph's weights live (decided by total deployed bytes).
  static MemRegion weight_region(int64_t deployed_bytes);

 private:
  int tile_cfg() const { return tile_cfg_salt(opt_); }
  uint64_t measure_conv_tile(const KernelChoice& choice, const ConvGeom& g);
  uint64_t measure_fc_tile(const KernelChoice& choice, const FcGeom& g);
  void compile_gemm_node(const Graph& graph, const Node& node, PlanStep& step);
  void compile_vec_node(const Graph& graph, const Node& node, PlanStep& step);

  CompileOptions opt_;
  Cluster cluster_;  // measurement cluster
  DmaModel dma_;
  MemRegion w_region_ = MemRegion::kL2;
  std::shared_ptr<TileLatencyCache> cache_;
  Rng rng_{0xBEEFCAFE};
};

/// Pipelined total of a tile sequence under double buffering: tile i's
/// compute overlaps tile i+1's input DMA and tile i-1's output DMA.
uint64_t pipeline_total(const std::vector<TileCost>& tiles);

/// The cluster configuration implied by a set of compile options (shared
/// by the measurement cluster and the engine's verify cluster).
ClusterConfig cluster_config_from(const CompileOptions& opt);

}  // namespace decimate
