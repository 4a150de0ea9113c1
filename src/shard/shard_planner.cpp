#include "shard/shard_planner.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "compiler/tiling.hpp"
#include "exec/tile_runner.hpp"
#include "kernels/work_split.hpp"
#include "nn/prune.hpp"

namespace decimate {

ShardPlanner::ShardPlanner(int num_clusters) : num_clusters_(num_clusters) {
  DECIMATE_CHECK(num_clusters >= 1,
                 "num_clusters must be >= 1, got " << num_clusters);
}

Cluster& ShardPlanner::measure_cluster(const CompileOptions& opt) {
  const ClusterConfig cfg = cluster_config_from(opt);
  if (cluster_ == nullptr || !(cfg == cluster_cfg_)) {
    cluster_ = std::make_unique<Cluster>(cfg);
    cluster_cfg_ = cfg;
  }
  return *cluster_;
}

bool ShardPlanner::wants_fc_c_split(const PlanStep& step,
                                    const Node& node) const {
  // Only a single-tile FC: with >= 2 output tiles the grid already
  // spreads across clusters, and conv/matmul keep their tile sharding
  // (conv halos and runtime matmul operands make a reduction split far
  // more expensive than it is worth).
  if (step.op != OpType::kFc || num_clusters_ < 2) return false;
  if (step.shard_axis != ShardAxis::kGemmTiles) return false;
  if (step.tile_costs.size() != 1) return false;
  const int grain = step.choice.sparse() ? step.choice.m : 4;
  return node.fc.c >= 2 * grain && node.fc.c % grain == 0;
}

StepShard ShardPlanner::shard_tiles(const CompiledPlan& plan,
                                    const PlanStep& step) {
  DmaModel dma(measure_cluster(plan.options).mem());
  StepShard out;
  out.node_id = step.node_id;
  out.axis = step.shard_axis;
  out.serial_cycles = step.serial_cycles;
  out.slices.resize(static_cast<size_t>(num_clusters_));

  // Cost-balanced assignment: largest tile first onto the least-loaded
  // cluster. Tile costs are the TileLatencyCache-measured numbers the
  // compiled schedule already carries.
  const auto scalar = [&](int i) {
    const TileCost& tc = step.tile_costs[static_cast<size_t>(i)];
    return tc.compute + tc.dma_in + tc.dma_out;
  };
  std::vector<int> order(step.tile_costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return scalar(a) > scalar(b); });
  std::vector<uint64_t> load(static_cast<size_t>(num_clusters_), 0);
  for (int idx : order) {
    const size_t c = static_cast<size_t>(std::distance(
        load.begin(), std::min_element(load.begin(), load.end())));
    out.slices[c].tiles.push_back(idx);
    load[c] += scalar(idx);
  }

  uint64_t longest = 0;
  for (ShardSlice& slice : out.slices) {
    if (slice.tiles.empty()) continue;
    std::sort(slice.tiles.begin(), slice.tiles.end());  // schedule order
    std::vector<TileCost> seq;
    seq.reserve(slice.tiles.size());
    // The compiled stream amortizes operand staging across the tiles of a
    // pass (loads_* marks the tile that pays). Re-bill per *operand*: for
    // every distinct input row-range / weight channel-range this cluster
    // touches without owning its paying tile, it must stage that operand
    // in its own L1 once.
    std::map<std::pair<int, int>, std::pair<bool, uint64_t>> in_ops, w_ops;
    for (int idx : slice.tiles) {
      const ShardTile& meta = step.tiles_meta[static_cast<size_t>(idx)];
      seq.push_back(step.tile_costs[static_cast<size_t>(idx)]);
      slice.out_bytes += meta.out_bytes;
      auto& in_op = in_ops[{meta.a_s, meta.a_e}];
      in_op.first = in_op.first || meta.loads_input;
      in_op.second = std::max(in_op.second, meta.in_fetch_cycles);
      auto& w_op = w_ops[{meta.k_s, meta.k_e}];
      w_op.first = w_op.first || meta.loads_weights;
      w_op.second = std::max(w_op.second, meta.w_fetch_cycles);
    }
    uint64_t rebill = 0;
    for (const auto& [range, op] : in_ops) {
      if (!op.first) rebill += op.second;
    }
    for (const auto& [range, op] : w_ops) {
      if (!op.first) rebill += op.second;
    }
    seq.front().dma_in += rebill;
    if (step.pipelined) {
      slice.cycles = pipeline_total(seq);
    } else {
      for (const TileCost& tc : seq) {
        slice.cycles += tc.compute + tc.dma_in + tc.dma_out;
      }
    }
    longest = std::max(longest, slice.cycles);
  }

  // Stitch: non-root partial outputs cross the interconnect into the
  // root cluster's L2 (the next step reads its input there). Transfers
  // share the interconnect, so they serialize.
  for (size_t c = 1; c < out.slices.size(); ++c) {
    if (out.slices[c].out_bytes != 0) {
      out.reduce_cycles +=
          dma.cost_1d(static_cast<uint64_t>(out.slices[c].out_bytes),
                      MemRegion::kL2, MemRegion::kL2);
    }
  }
  out.critical_cycles = longest + out.serial_cycles + out.reduce_cycles;
  return out;
}

StepShard ShardPlanner::shard_fc_c(const CompiledPlan& plan,
                                   const PlanStep& step, const Node& node) {
  Cluster& cluster = measure_cluster(plan.options);
  DmaModel dma(cluster.mem());
  const FcGeom& g = node.fc;
  const KernelChoice& choice = step.choice;
  const int grain = choice.sparse() ? choice.m : 4;
  const int parts = std::min(num_clusters_, g.c / grain);
  const auto ranges = balanced_ranges(g.c, parts, grain);
  // pair kernels need an even K in the cycle-model geometry
  int km = g.k;
  if (choice.kind != KernelKind::kFcSparseSw && km % 2 != 0) km += 1;
  const int64_t partial_bytes = static_cast<int64_t>(g.tokens) * g.k * 4;

  StepShard out;
  out.node_id = step.node_id;
  out.axis = ShardAxis::kFcC;
  out.serial_cycles = step.serial_cycles;
  out.slices.resize(static_cast<size_t>(num_clusters_));

  uint64_t longest = 0;
  for (size_t j = 0; j < ranges.size(); ++j) {
    const auto [c_s, c_e] = ranges[j];
    if (c_s >= c_e) continue;
    ShardSlice& slice = out.slices[j];
    slice.c_range = {c_s, c_e};
    FcGeom pg;
    pg.tokens = g.tokens;
    pg.c = c_e - c_s;
    pg.k = km;
    // a fresh tile shape: measured once through the plan's shared cache
    const uint64_t compute = plan.latencies->measure(
        fc_tile_key(choice.kind, choice.m, pg,
                    tile_cfg_salt(plan.options)),
        [&]() -> uint64_t {
          TileRunner runner(cluster);
          const Tensor8 input = Tensor8::random({pg.tokens, pg.c}, rng_);
          Tensor32 bias({pg.k}, 0);
          const Requant rq{1, 8};
          if (choice.sparse()) {
            Tensor8 w = Tensor8::random({pg.k, pg.c}, rng_);
            nm_prune(w.flat(), pg.k, pg.c, 1, choice.m);
            const NmPacked packed =
                nm_pack(w.flat(), pg.k, pg.c, choice.m,
                        TileRunner::layout_for(choice.kind));
            return runner.fc(choice.kind, pg, rq, input, nullptr, &packed,
                             bias)
                .result.wall_cycles;
          }
          Tensor8 w = Tensor8::random({pg.k, pg.c}, rng_);
          return runner.fc(choice.kind, pg, rq, input, &w, nullptr, bias)
              .result.wall_cycles;
        });
    // input column slice (strided), weight column slice, int32 partials
    const WeightRowBytes row = weight_row_bytes(choice, pg.c);
    uint64_t dma_in =
        dma.cost_2d(static_cast<uint64_t>(g.tokens),
                    static_cast<uint64_t>(pg.c), MemRegion::kL2,
                    MemRegion::kL1) +
        dma.cost_1d(static_cast<uint64_t>(g.k) * row.total() +
                        (j == 0 ? 4ull * g.k : 0),  // bias rides with root
                    step.weight_region, MemRegion::kL1);
    const uint64_t dma_out = dma.cost_1d(
        static_cast<uint64_t>(partial_bytes), MemRegion::kL1, MemRegion::kL2);
    slice.cycles = dma_in + compute + dma_out;
    slice.out_bytes = partial_bytes;
    longest = std::max(longest, slice.cycles);
  }

  // Reduction on the root: every non-root int32 partial crosses the
  // interconnect, then folds in with one add per element (ascending
  // cluster order, so the unsharded accumulation is only regrouped).
  const uint64_t add_cycles =
      (static_cast<uint64_t>(g.tokens) * g.k +
       static_cast<uint64_t>(plan.options.num_cores) - 1) /
      static_cast<uint64_t>(plan.options.num_cores);
  for (size_t j = 1; j < out.slices.size(); ++j) {
    if (!out.slices[j].active()) continue;
    out.reduce_cycles += dma.cost_1d(static_cast<uint64_t>(partial_bytes),
                                     MemRegion::kL2, MemRegion::kL2) +
                         add_cycles;
  }
  out.critical_cycles = longest + out.serial_cycles + out.reduce_cycles;
  return out;
}

ShardPlan ShardPlanner::plan(const CompiledPlan& compiled) {
  DECIMATE_CHECK(compiled.graph != nullptr, "plan has no graph");
  DECIMATE_CHECK(
      compiled.options.batch <= 1,
      "cannot shard a batch-fused plan (CompileOptions::batch == "
          << compiled.options.batch
          << "): the fused tile stream interleaves images; recompile with "
             "batch == 1");
  ShardPlan sp;
  sp.num_clusters = num_clusters_;
  sp.cluster_busy_cycles.assign(static_cast<size_t>(num_clusters_), 0);
  sp.steps.reserve(compiled.steps.size());

  for (const PlanStep& step : compiled.steps) {
    const Node& node = compiled.graph->node(step.node_id);
    StepShard ss;
    if (step.shard_axis != ShardAxis::kNone && !step.tile_costs.empty()) {
      DECIMATE_CHECK(step.tiles_meta.size() == step.tile_costs.size(),
                     "plan step " << node.name << " has no tile metadata");
      ss = wants_fc_c_split(step, node) ? shard_fc_c(compiled, step, node)
                                        : shard_tiles(compiled, step);
    } else {
      // serial / marshalling / whole-tensor step: root cluster only
      ss.node_id = step.node_id;
      ss.slices.resize(static_cast<size_t>(num_clusters_));
      ss.critical_cycles = step.report.total_cycles;
      sp.cluster_busy_cycles[0] += step.report.total_cycles;
    }
    for (size_t c = 0; c < ss.slices.size(); ++c) {
      sp.cluster_busy_cycles[c] += ss.slices[c].cycles;
    }
    sp.cluster_busy_cycles[0] += ss.serial_cycles + ss.reduce_cycles;
    sp.critical_path_cycles += ss.critical_cycles;
    sp.reduction_cycles += ss.reduce_cycles;
    sp.steps.push_back(std::move(ss));
  }
  return sp;
}

}  // namespace decimate
