#include "shard/shard_planner.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "exec/compile.hpp"
#include "sim/dma.hpp"

namespace decimate {

namespace {

StepShard shard_tiles(const PlanStep& step, int num_clusters) {
  StepShard out;
  out.node_id = step.node_id;
  out.axis = step.shard_axis;
  out.serial_cycles = step.serial_cycles;
  out.slices.resize(static_cast<size_t>(num_clusters));

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
  std::vector<uint64_t> load(static_cast<size_t>(num_clusters), 0);
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
  const DmaConfig dma;
  for (size_t c = 1; c < out.slices.size(); ++c) {
    out.reduce_cycles +=
        dma.cost_1d(static_cast<uint64_t>(out.slices[c].out_bytes),
                    MemRegion::kL2, MemRegion::kL2);
  }
  out.critical_cycles = longest + out.serial_cycles + out.reduce_cycles;
  return out;
}

}  // namespace

ShardPlan shard_plan(const CompiledPlan& plan) {
  const int clusters = plan.options.num_clusters;
  DECIMATE_CHECK(clusters >= 1, "num_clusters must be >= 1, got " << clusters);
  DECIMATE_CHECK(
      plan.options.batch <= 1,
      "cannot shard a batch-fused plan (CompileOptions::batch == "
          << plan.options.batch
          << "): the fused tile stream interleaves images; recompile with "
             "batch == 1");
  ShardPlan sp;
  sp.num_clusters = clusters;
  sp.cluster_busy_cycles.assign(static_cast<size_t>(clusters), 0);
  sp.steps.reserve(plan.steps.size());

  for (const PlanStep& step : plan.steps) {
    StepShard ss;
    if (step.shard_axis != ShardAxis::kNone && !step.tile_costs.empty()) {
      DECIMATE_CHECK(step.tiles_meta.size() == step.tile_costs.size(),
                     "plan step " << step.report.name
                                  << " has no tile metadata");
      ss = shard_tiles(step, clusters);
    } else {
      // serial / marshalling / whole-tensor step: root cluster only
      ss.node_id = step.node_id;
      ss.slices.resize(static_cast<size_t>(clusters));
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
