#pragma once
// CompiledPlan: the immutable product of lowering a Graph (Sec. 4) —
// per-node kernel choice, tile schedule, packed N:M weights, pre-built
// kernel programs, L1/L2/L3 placement, and the full cycle/memory report.
//
// Compile once, execute many: every cycle number in this simulator is a
// function of (kernel, tile geometry) alone — tiles are measured on the
// ISS with synthetic data and cached — so the whole per-layer report is
// input-independent and computed at compile time. The ExecutionEngine
// only runs the numerics (reference ops, bit-exact mirrors of the
// kernels) and stamps the precomputed reports onto each run.
//
// A plan is data: it holds no reference to the cache or compiler that
// costed it, so its content (and its `.plan` artifact bytes) depend only
// on its graph and compile options.

#include <memory>
#include <string>
#include <vector>

#include "compiler/graph.hpp"
#include "compiler/pattern.hpp"
#include "compiler/tiling.hpp"
#include "nn/host_kernels.hpp"
#include "nn/nm_format.hpp"
#include "sim/memory_map.hpp"

namespace decimate {

struct LayerReport {
  std::string name;
  std::string impl;            // kernel / vector-op implementing the node
  int64_t macs = 0;            // dense-equivalent
  uint64_t compute_cycles = 0; // Σ tile compute
  uint64_t dma_cycles = 0;     // Σ tile DMA (un-overlapped view)
  uint64_t weight_dma_cycles = 0;  // weight-fetch part of dma_cycles
  uint64_t total_cycles = 0;   // pipelined total
  int64_t weight_bytes = 0;    // deployed storage (values+offsets+bias)
  int tiles = 1;  // batch-fused FC steps ("...@bN" impl): whole-batch count
  double bits_per_weight = 0.0;

  double macs_per_cycle() const {
    return total_cycles ? static_cast<double>(macs) /
                              static_cast<double>(total_cycles)
                        : 0.0;
  }
};

struct NetworkRun {
  Tensor8 output;
  uint64_t total_cycles = 0;
  int64_t total_macs = 0;
  int64_t weight_bytes = 0;
  std::vector<LayerReport> layers;

  double macs_per_cycle() const {
    return total_cycles ? static_cast<double>(total_macs) /
                              static_cast<double>(total_cycles)
                        : 0.0;
  }
};

/// Cycle cost of one tile in the double-buffered DMA pipeline.
struct TileCost {
  uint64_t compute = 0;
  uint64_t dma_in = 0;
  uint64_t dma_out = 0;
};

/// How a step's tiles may be partitioned across clusters (see shard/).
enum class ShardAxis : uint8_t {
  kNone = 0,   // serial / marshalling / whole-tensor reduction: one cluster
  kGemmTiles,  // conv oy x k / fc tok x k output tiles: disjoint rectangles
  kRows,       // chunked row-parallel vector op (rows are independent)
};

/// Output footprint of one tile — which slice of the step's output it
/// produces (compiler-recorded, parallel to PlanStep::tile_costs). The
/// shard planner assigns whole tiles to clusters, costs the stitch
/// traffic from out_bytes, and re-bills operand staging from the fetch
/// fields: the compiled stream amortizes input/weight loads across
/// consecutive tiles (loads_* marks the tile that actually pays), but a
/// cluster that receives only non-paying tiles of a pass still has to
/// stage the operand in its own L1.
struct ShardTile {
  int a_s = 0, a_e = 0;     // conv: output rows; fc: tokens; vec: op rows
  int k_s = 0, k_e = 0;     // output channels (gemm); unused for vec rows
  int64_t out_bytes = 0;    // bytes this tile writes
  uint64_t in_fetch_cycles = 0;  // cost to stage this tile's input in L1
  uint64_t w_fetch_cycles = 0;   // cost to stage its weights in L1
  bool loads_input = false;      // the compiled stream bills input here
  bool loads_weights = false;    // ... and weights here
};

/// One graph node, lowered. Gemm fields are meaningful only for
/// conv/fc/matmul nodes.
struct PlanStep {
  int node_id = 0;
  OpType op = OpType::kInput;

  // gemm lowering
  KernelChoice choice;
  ConvTilePlan conv_tiles;           // kConv2d
  FcTilePlan fc_tiles;               // kFc / kMatmul
  bool has_packed = false;           // sparse node with static weights
  NmPacked packed;                   // pre-packed N:M values + offsets
  const Program* program = nullptr;  // pre-built (kind, M) kernel program
  MemRegion weight_region = MemRegion::kL2;
  // host execution: which host kernel family runs this node's numerics
  // (sparse steps carry the decoded N:M gather plan; see nn/host_kernels)
  HostKernelDispatch host;

  // cost model
  std::vector<TileCost> tile_costs;  // per-tile, in schedule order
  bool pipelined = true;    // tiles double-buffer (join the cross-layer
                            // DMA pipeline); false: DMA serializes
  uint64_t serial_cycles = 0;  // non-overlappable extras (marshalling DMA,
                               // matmul transpose) outside tile_costs
  bool batch_fused = false;    // conv/FC tiles cover options.batch images
                               // at once; tile_costs span the whole batch
                               // and the report is per-image amortized
  // shard metadata: which axis partitions this step across clusters, and
  // each tile's output slice (parallel to tile_costs; empty when the step
  // is not tile-shardable)
  ShardAxis shard_axis = ShardAxis::kNone;
  std::vector<ShardTile> tiles_meta;
  LayerReport report;                // precomputed, input-independent
};

struct CompiledPlan {
  // Compiler-produced plans borrow the caller's graph (`graph` must
  // outlive the plan; the serving PlanStore guarantees it with its own
  // stable copy). Registry-loaded plans instead OWN their rehydrated
  // graph via `owned_graph` — `graph` then points into it, so a loaded
  // plan is self-contained and cannot dangle whatever happens to the
  // graph it was originally compiled from.
  const Graph* graph = nullptr;
  std::shared_ptr<const Graph> owned_graph;
  CompileOptions options;
  MemRegion weight_region = MemRegion::kL2;
  int64_t weight_bytes = 0;   // total deployed (values+offsets+bias)
  int64_t total_macs = 0;     // dense-equivalent
  uint64_t total_cycles = 0;  // Σ per-layer pipelined totals
  std::vector<PlanStep> steps;  // one per node, ids 1..graph->size()-1

  double macs_per_cycle() const {
    return total_cycles ? static_cast<double>(total_macs) /
                              static_cast<double>(total_cycles)
                        : 0.0;
  }
};

/// Deployed weight storage of one GEMM node under a kernel choice
/// (NZ values + packed offsets + int32 bias), in bytes.
int64_t deployed_weight_bytes(const Node& node, const KernelChoice& choice);

}  // namespace decimate
