#include "exec/compile.hpp"

#include <algorithm>
#include <functional>

#include "common/bitutil.hpp"
#include "exec/node_exec.hpp"
#include "exec/tile_runner.hpp"
#include "kernels/vecops.hpp"
#include "nn/prune.hpp"
#include "verify/verify.hpp"

namespace decimate {

ClusterConfig cluster_config_from(const CompileOptions& opt) {
  ClusterConfig cfg;
  cfg.num_cores = opt.num_cores;
  cfg.lockstep = opt.lockstep;
  cfg.core.xdec_forwarding = opt.xdec_forwarding;
  return cfg;
}

namespace {

int64_t numel_of(const std::vector<int>& shape) {
  int64_t n = 1;
  for (int d : shape) n *= d;
  return n;
}

}  // namespace

int64_t deployed_weight_bytes(const Node& node, const KernelChoice& choice) {
  const int rows = (node.op == OpType::kConv2d) ? node.conv.k : node.fc.k;
  const int cols = (node.op == OpType::kConv2d) ? node.conv.fsz() : node.fc.c;
  int64_t bytes = 0;
  if (choice.sparse()) {
    bytes = nm_bytes(rows, cols, choice.m,
                     /*duplicated=*/choice.kind == KernelKind::kConvSparseIsa);
  } else {
    bytes = dense_bytes(rows, cols);
  }
  return bytes + 4ll * rows;  // int32 bias
}

uint64_t pipeline_total(const std::vector<TileCost>& tiles) {
  if (tiles.empty()) return 0;
  uint64_t total = tiles.front().dma_in;
  const size_t n = tiles.size();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t overlap = (i + 1 < n ? tiles[i + 1].dma_in : 0) +
                             (i > 0 ? tiles[i - 1].dma_out : 0);
    total += std::max(tiles[i].compute, overlap);
  }
  total += tiles.back().dma_out;
  return total;
}

Compiler::Compiler(const CompileOptions& opt,
                   std::shared_ptr<TileLatencyCache> latencies)
    : opt_(opt),
      cluster_(cluster_config_from(opt)),
      dma_(cluster_.mem()),
      cache_(latencies ? std::move(latencies)
                       : std::make_shared<TileLatencyCache>()) {
  // warm start: pre-load previously measured tile cycles so compiles need
  // no ISS simulation for shapes the file already covers
  if (!opt_.latency_cache_path.empty()) {
    cache_->load(opt_.latency_cache_path);
  }
}

size_t Compiler::save_latencies() const {
  DECIMATE_CHECK(!opt_.latency_cache_path.empty(),
                 "save_latencies needs CompileOptions::latency_cache_path");
  return cache_->save(opt_.latency_cache_path);
}

MemRegion Compiler::weight_region(int64_t deployed_bytes) {
  // Leave ~20% of L2 for activations and buffers.
  const auto l2_budget = static_cast<int64_t>(MemoryMap::kL2Size * 8 / 10);
  return deployed_bytes <= l2_budget ? MemRegion::kL2 : MemRegion::kL3;
}

int tile_cfg_salt(const CompileOptions& opt) {
  return opt.num_cores | (opt.lockstep ? 1 << 8 : 0) |
         (opt.xdec_forwarding ? 1 << 9 : 0);
}

uint64_t Compiler::measure_conv_tile(const KernelChoice& choice,
                                     const ConvGeom& g) {
  return cache_->measure(
      conv_tile_key(choice.kind, choice.m, g, tile_cfg()), [&]() -> uint64_t {
        TileRunner runner(cluster_);
        const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng_);
        Tensor32 bias({g.k}, 0);
        const Requant rq{1, 8};
        if (choice.sparse()) {
          Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng_);
          nm_prune(w.flat(), g.k, g.fsz(), 1, choice.m);
          const NmPacked packed = nm_pack(w.flat(), g.k, g.fsz(), choice.m,
                                          TileRunner::layout_for(choice.kind));
          return runner.conv(choice.kind, g, rq, input, nullptr, &packed, bias)
              .result.wall_cycles;
        }
        Tensor8 w = Tensor8::random({g.k, g.fsz()}, rng_);
        return runner.conv(choice.kind, g, rq, input, &w, nullptr, bias)
            .result.wall_cycles;
      });
}

uint64_t Compiler::measure_fc_tile(const KernelChoice& choice,
                                   const FcGeom& g) {
  return cache_->measure(
      fc_tile_key(choice.kind, choice.m, g, tile_cfg()), [&]() -> uint64_t {
        TileRunner runner(cluster_);
        const Tensor8 input = Tensor8::random({g.tokens, g.c}, rng_);
        Tensor32 bias({g.k}, 0);
        const Requant rq{1, 8};
        if (choice.sparse()) {
          Tensor8 w = Tensor8::random({g.k, g.c}, rng_);
          nm_prune(w.flat(), g.k, g.c, 1, choice.m);
          const NmPacked packed = nm_pack(w.flat(), g.k, g.c, choice.m,
                                          TileRunner::layout_for(choice.kind));
          return runner.fc(choice.kind, g, rq, input, nullptr, &packed, bias)
              .result.wall_cycles;
        }
        Tensor8 w = Tensor8::random({g.k, g.c}, rng_);
        return runner.fc(choice.kind, g, rq, input, &w, nullptr, bias)
            .result.wall_cycles;
      });
}

void Compiler::compile_gemm_node(const Graph& graph, const Node& node,
                                 PlanStep& step) {
  LayerReport& rep = step.report;
  const int64_t l1_budget = cluster_.l1_data_limit() - MemoryMap::kL1Base;
  const int startups_per_w =
      opt_.interleaved_weights ? 1 : (3);  // values + offsets + bias

  if (node.op == OpType::kConv2d) {
    const ConvGeom& g = node.conv;
    const KernelChoice choice = select_kernel(node, opt_);
    // Batch-fused conv tiling: the batch enters the tile *schedule* (a
    // K-outer pass sweeps every image's row tiles while the weight tile
    // stays resident, so weights are fetched once per batch), never the
    // kernel geometry — conv rows are not independent across images.
    const int batch = std::max(1, opt_.batch);
    const ConvTilePlan plan = plan_conv_tiles(
        g, choice, opt_.num_cores, l1_budget, opt_.num_clusters, batch);
    step.choice = choice;
    step.conv_tiles = plan;
    step.weight_region = w_region_;
    step.program = &TileRunner::program_for(choice.kind, choice.m);
    step.shard_axis = ShardAxis::kGemmTiles;
    rep.impl = kernel_kind_name(choice.kind);
    if (choice.sparse()) rep.impl += ":1:" + std::to_string(choice.m);
    rep.macs = g.macs();
    rep.weight_bytes = deployed_weight_bytes(node, choice);
    rep.bits_per_weight = bits_per_dense_weight(choice, g.fsz());
    rep.tiles = plan.n_oy * plan.n_k * batch;  // whole-batch count if fused

    const WeightRowBytes row = weight_row_bytes(choice, g.fsz());
    const int ixp = g.ix + 2 * g.pad;
    const auto oy_ranges = tile_ranges(g.oy(), plan.oy_t);
    const auto k_ranges = tile_ranges(g.k, plan.k_t);
    const auto add_tile = [&](const std::pair<int, int>& oy_r,
                              const std::pair<int, int>& k_r, bool load_in,
                              bool load_w) {
      const auto [oy_s, oy_e] = oy_r;
      const auto [k_s, k_e] = k_r;
      const int oy_len = oy_e - oy_s, k_len = k_e - k_s;
      ConvGeom tg = g;
      tg.ix = ixp;
      tg.iy = (oy_len - 1) * g.stride + g.fy;
      tg.pad = 0;
      tg.k = k_len;
      TileCost tc;
      tc.compute = measure_conv_tile(choice, tg);
      const uint64_t in_fetch = dma_.cost_2d(static_cast<uint64_t>(tg.iy),
                                             static_cast<uint64_t>(ixp) * g.c,
                                             MemRegion::kL2, MemRegion::kL1);
      const uint64_t w_bytes =
          static_cast<uint64_t>(k_len) * row.total() + 4ull * k_len;
      uint64_t w_fetch = dma_.cost_1d(w_bytes, w_region_, MemRegion::kL1);
      // separate-transfer ablation: extra startups
      for (int s = 1; s < startups_per_w; ++s) {
        w_fetch += (w_region_ == MemRegion::kL3)
                       ? dma_.config().l3_startup_cycles
                       : dma_.config().l2_startup_cycles;
      }
      if (load_in) tc.dma_in += in_fetch;
      if (load_w) {
        tc.dma_in += w_fetch;
        rep.weight_dma_cycles += w_fetch;
      }
      tc.dma_out = dma_.cost_1d(
          static_cast<uint64_t>(oy_len) * g.ox() * k_len, MemRegion::kL1,
          MemRegion::kL2);
      rep.compute_cycles += tc.compute;
      rep.dma_cycles += tc.dma_in + tc.dma_out;
      step.tile_costs.push_back(tc);
      step.tiles_meta.push_back(
          {oy_s, oy_e, k_s, k_e,
           static_cast<int64_t>(oy_len) * g.ox() * k_len, in_fetch, w_fetch,
           load_in, load_w});
    };
    if (plan.k_outer) {
      // weights resident per K pass; the pass covers the whole (possibly
      // batched) row sweep, so each weight tile is fetched exactly once
      for (const auto& k_r : k_ranges) {
        bool first = true;
        for (int b = 0; b < batch; ++b) {
          for (const auto& oy_r : oy_ranges) {
            add_tile(oy_r, k_r, /*load_in=*/true, /*load_w=*/first);
            first = false;
          }
        }
      }
    } else {
      // row tiles outer: input rows loaded once per row tile, weights
      // re-fetched per tile — batching cannot amortize this order
      for (int b = 0; b < batch; ++b) {
        for (const auto& oy_r : oy_ranges) {
          bool first = true;
          for (const auto& k_r : k_ranges) {
            add_tile(oy_r, k_r, /*load_in=*/first, /*load_w=*/true);
            first = false;
          }
        }
      }
    }
    step.pipelined = plan.double_buffered;
    step.batch_fused = batch > 1;
    const uint64_t batch_total = plan.double_buffered
                                     ? pipeline_total(step.tile_costs)
                                     : rep.compute_cycles + rep.dma_cycles;
    if (batch > 1) {
      // tile_costs — and rep.tiles — span the whole fused batch; cycle
      // fields are per-image amortized (rounded up), which is where the
      // weight-DMA saving shows. The impl tag marks the mixed granularity.
      rep.impl += "@b" + std::to_string(batch);
      const auto amort = [batch](uint64_t v) {
        return (v + static_cast<uint64_t>(batch) - 1) / batch;
      };
      rep.compute_cycles = amort(rep.compute_cycles);
      rep.dma_cycles = amort(rep.dma_cycles);
      rep.weight_dma_cycles = amort(rep.weight_dma_cycles);
      rep.total_cycles = amort(batch_total);
    } else {
      rep.total_cycles = batch_total;
    }

    if (choice.sparse()) {
      step.packed = nm_pack(node.weights.flat(), g.k, g.fsz(), choice.m,
                            TileRunner::layout_for(choice.kind));
      step.has_packed = true;
    }
    step.host = host_dispatch_for(node, step);
    return;
  }

  // FC / matmul
  const FcGeom& g = node.fc;
  const KernelChoice choice = select_kernel(node, opt_);
  step.choice = choice;
  step.program = &TileRunner::program_for(choice.kind, choice.m);
  uint64_t extra_cycles = 0;
  if (node.op == OpType::kMatmul) {
    DECIMATE_CHECK(node.inputs.size() >= 2, "matmul needs a second operand");
    const auto& b_shape = graph.node(node.inputs.at(1)).out_shape;
    DECIMATE_CHECK(b_shape.size() == 2, "matmul operand must be 2D");
    // the on-device transpose is a strided 2D DMA pass inside L2
    if (node.transpose_b) {
      extra_cycles += dma_.cost_2d(static_cast<uint64_t>(b_shape[1]),
                                   static_cast<uint64_t>(b_shape[0]),
                                   MemRegion::kL2, MemRegion::kL2);
    }
  }

  // Batch-aware FC tiling: fuse the batch dimension into the token dim so
  // the tile search sees all images' rows at once and each weight tile is
  // fetched once per batch, not once per image. Matmul operands are
  // per-image activations, so matmul never fuses.
  const int batch =
      (node.op == OpType::kFc) ? std::max(1, opt_.batch) : 1;

  // odd K with a pair kernel: pad the cycle-model geometry to even
  FcGeom cg = g;
  cg.tokens = g.tokens * batch;
  if (choice.kind != KernelKind::kFcSparseSw && cg.k % 2 != 0) cg.k += 1;
  const FcTilePlan plan = plan_fc_tiles(cg, choice, opt_.num_cores, l1_budget,
                                        opt_.num_clusters);
  step.fc_tiles = plan;
  step.shard_axis = ShardAxis::kGemmTiles;
  rep.impl = kernel_kind_name(choice.kind);
  if (choice.sparse()) rep.impl += ":1:" + std::to_string(choice.m);
  rep.macs = g.macs();
  rep.weight_bytes =
      (node.op == OpType::kMatmul) ? 0 : deployed_weight_bytes(node, choice);
  rep.bits_per_weight = bits_per_dense_weight(choice, g.c);
  rep.tiles = plan.n_tok * plan.n_k;

  const WeightRowBytes row = weight_row_bytes(choice, cg.c);
  // matmul "weights" are activations living in L2
  const MemRegion wreg =
      (node.op == OpType::kMatmul) ? MemRegion::kL2 : w_region_;
  step.weight_region = wreg;
  const auto tok_ranges = tile_ranges(cg.tokens, plan.tok_t);
  const auto k_ranges = tile_ranges(cg.k, plan.k_t);
  const auto& outer = plan.k_outer ? k_ranges : tok_ranges;
  const auto& inner = plan.k_outer ? tok_ranges : k_ranges;
  for (size_t o = 0; o < outer.size(); ++o) {
    for (size_t i = 0; i < inner.size(); ++i) {
      const auto [t_s, t_e] = plan.k_outer ? inner[i] : outer[o];
      const auto [k_s, k_e] = plan.k_outer ? outer[o] : inner[i];
      FcGeom tg;
      tg.tokens = t_e - t_s;
      tg.c = cg.c;
      tg.k = k_e - k_s;
      if (choice.kind != KernelKind::kFcSparseSw && tg.k % 2 != 0) tg.k += 1;
      TileCost tc;
      tc.compute = measure_fc_tile(choice, tg);
      const bool load_in = plan.k_outer || i == 0;
      const bool load_w = plan.k_outer ? (i == 0) : true;
      const uint64_t in_fetch =
          dma_.cost_1d(static_cast<uint64_t>(tg.tokens) * cg.c,
                       MemRegion::kL2, MemRegion::kL1);
      const uint64_t w_bytes =
          static_cast<uint64_t>(tg.k) * row.total() + 4ull * tg.k;
      uint64_t w_fetch = dma_.cost_1d(w_bytes, wreg, MemRegion::kL1);
      for (int s = 1; s < startups_per_w; ++s) {
        w_fetch += (wreg == MemRegion::kL3)
                       ? dma_.config().l3_startup_cycles
                       : dma_.config().l2_startup_cycles;
      }
      if (load_in) tc.dma_in += in_fetch;
      if (load_w) {
        tc.dma_in += w_fetch;
        rep.weight_dma_cycles += w_fetch;
      }
      tc.dma_out =
          dma_.cost_1d(static_cast<uint64_t>(tg.tokens) * tg.k,
                       MemRegion::kL1, MemRegion::kL2);
      rep.compute_cycles += tc.compute;
      rep.dma_cycles += tc.dma_in + tc.dma_out;
      step.tile_costs.push_back(tc);
      // meta ranges are real output coordinates (clamped to the graph's
      // K — the cycle-model geometry may be padded to an even K)
      const int mk_s = std::min(k_s, g.k), mk_e = std::min(k_e, g.k);
      step.tiles_meta.push_back(
          {t_s, t_e, mk_s, mk_e,
           static_cast<int64_t>(t_e - t_s) * (mk_e - mk_s), in_fetch,
           w_fetch, load_in, load_w});
    }
  }
  step.pipelined = plan.double_buffered;
  step.serial_cycles = extra_cycles;
  step.batch_fused = batch > 1;
  const uint64_t batch_total = plan.double_buffered
                                   ? pipeline_total(step.tile_costs)
                                   : rep.compute_cycles + rep.dma_cycles;
  if (batch > 1) {
    // tile_costs — and rep.tiles — span the whole fused batch; the cycle
    // fields are per-image amortized (rounded up), which is where the
    // weight-DMA saving shows. The impl tag marks the mixed granularity.
    rep.impl += "@b" + std::to_string(batch);
    const auto amort = [batch](uint64_t v) {
      return (v + static_cast<uint64_t>(batch) - 1) / batch;
    };
    rep.compute_cycles = amort(rep.compute_cycles);
    rep.dma_cycles = amort(rep.dma_cycles);
    rep.weight_dma_cycles = amort(rep.weight_dma_cycles);
    rep.total_cycles = amort(batch_total) + extra_cycles;
  } else {
    rep.total_cycles = batch_total + extra_cycles;
  }

  if (node.op == OpType::kFc && choice.sparse()) {
    step.packed = nm_pack(node.weights.flat(), g.k, g.c, choice.m,
                          TileRunner::layout_for(choice.kind));
    step.has_packed = true;
  }
  step.host = host_dispatch_for(node, step);
}

void Compiler::compile_vec_node(const Graph& graph, const Node& node,
                                PlanStep& step) {
  LayerReport& rep = step.report;
  const std::vector<int>& in_shape = graph.node(node.inputs.at(0)).out_shape;
  const int64_t in_numel = numel_of(in_shape);
  rep.impl = op_name(node.op);

  // data-marshalling ops are pure DMA passes; no ISS measurement
  switch (node.op) {
    case OpType::kReshape:
      rep.total_cycles = 0;
      return;
    case OpType::kSlice: {
      DECIMATE_CHECK(in_shape.size() == 2, "slice expects {T, C}");
      const int t = in_shape[0];
      const int w = node.slice_end - node.slice_begin;
      DECIMATE_CHECK(w > 0 && node.slice_end <= in_shape[1],
                     "bad slice range");
      // column gather = strided 2D DMA inside L2
      rep.dma_cycles = dma_.cost_2d(static_cast<uint64_t>(t),
                                    static_cast<uint64_t>(w), MemRegion::kL2,
                                    MemRegion::kL2);
      rep.total_cycles = rep.dma_cycles;
      step.serial_cycles = rep.total_cycles;
      return;
    }
    case OpType::kConcat: {
      const int t = in_shape[0];
      for (int input_id : node.inputs) {
        const auto& p_shape = graph.node(input_id).out_shape;
        DECIMATE_CHECK(p_shape.size() == 2 && p_shape[0] == t,
                       "concat mismatch");
        rep.dma_cycles += dma_.cost_2d(static_cast<uint64_t>(t),
                                       static_cast<uint64_t>(p_shape[1]),
                                       MemRegion::kL2, MemRegion::kL2);
      }
      rep.total_cycles = rep.dma_cycles;
      step.serial_cycles = rep.total_cycles;
      return;
    }
    default: break;
  }

  // cycles: chunked ISS measurement + DMA pipeline. `key_extra`
  // disambiguates shapes whose (rows, row_bytes) coincide (e.g. maxpool
  // rows with equal 2*w*c products but different channel counts). Rows are
  // independent, so chunks shard across clusters; a shard-aware compile
  // caps the chunk size so every cluster can own at least one.
  auto chunked = [&](int total_rows, int row_bytes, int out_row_bytes,
                     int l1_per_row, int key_extra,
                     const std::function<uint64_t(int)>& measure_rows) {
    const int64_t budget =
        (cluster_.l1_data_limit() - MemoryMap::kL1Base) - 4096;
    int rows_per_chunk = std::max<int>(
        1, static_cast<int>(budget / std::max(1, 2 * l1_per_row)));
    rows_per_chunk = std::min(rows_per_chunk, total_rows);
    if (opt_.num_clusters > 1) {
      rows_per_chunk = std::min(
          rows_per_chunk,
          std::max(1, static_cast<int>(ceil_div(total_rows,
                                                opt_.num_clusters))));
    }
    for (const auto& [s, e] : tile_ranges(total_rows, rows_per_chunk)) {
      TileCost tc;
      tc.compute = cache_->measure(
          vec_tile_key(node.op, e - s, row_bytes, key_extra, tile_cfg()),
          [&] { return measure_rows(e - s); });
      tc.dma_in = dma_.cost_1d(static_cast<uint64_t>(e - s) * row_bytes,
                               MemRegion::kL2, MemRegion::kL1);
      tc.dma_out = dma_.cost_1d(static_cast<uint64_t>(e - s) * out_row_bytes,
                                MemRegion::kL1, MemRegion::kL2);
      rep.compute_cycles += tc.compute;
      rep.dma_cycles += tc.dma_in + tc.dma_out;
      step.tile_costs.push_back(tc);
      step.tiles_meta.push_back({s, e, 0, 0,
                                 static_cast<int64_t>(e - s) * out_row_bytes,
                                 tc.dma_in, 0, true, false});
    }
    step.shard_axis = ShardAxis::kRows;
    rep.tiles = static_cast<int>(step.tile_costs.size());
    rep.total_cycles = pipeline_total(step.tile_costs);
  };

  switch (node.op) {
    case OpType::kRelu: {
      // round up: a numel % 4 tail still costs a word of compute and DMA
      const int words = static_cast<int>((in_numel + 3) / 4);
      chunked(words, 4, 4, 8, 0, [&](int rows) {
        Tensor8 chunk = Tensor8::random({rows * 4}, rng_);
        return run_relu(cluster_, chunk).result.wall_cycles;
      });
      break;
    }
    case OpType::kAdd: {
      chunked(static_cast<int>(in_numel), 2, 1, 3, 0, [&](int rows) {
        Tensor8 a = Tensor8::random({rows}, rng_);
        Tensor8 b = Tensor8::random({rows}, rng_);
        return run_add(cluster_, a, node.rq, b, node.rq2).result.wall_cycles;
      });
      break;
    }
    case OpType::kLut: {
      chunked(static_cast<int>(in_numel), 1, 1, 2, 0, [&](int rows) {
        Tensor8 chunk = Tensor8::random({rows}, rng_);
        return run_lut(cluster_, chunk, node.lut).result.wall_cycles;
      });
      break;
    }
    case OpType::kMaxPool2: {
      const int h = in_shape[0], w = in_shape[1], c = in_shape[2];
      // c rides in the key's extra field: (w, c) pairs with equal 2*w*c
      // products are different kernels with different cycle counts
      chunked(h / 2, 2 * w * c, (w / 2) * c, 3 * w * c, c, [&](int rows) {
        Tensor8 chunk = Tensor8::random({2 * rows, w, c}, rng_);
        return run_maxpool2x2(cluster_, chunk).result.wall_cycles;
      });
      break;
    }
    case OpType::kAvgPool: {
      const int h = in_shape[0], w = in_shape[1], c = in_shape[2];
      TileCost tc;
      tc.compute =
          cache_->measure(vec_tile_key(node.op, h, w, c, tile_cfg()), [&] {
            Tensor8 chunk = Tensor8::random({h, w, c}, rng_);
            return run_avgpool(cluster_, chunk, node.rq).result.wall_cycles;
          });
      tc.dma_in = dma_.cost_1d(in_numel, MemRegion::kL2, MemRegion::kL1);
      tc.dma_out = dma_.cost_1d(static_cast<uint64_t>(c), MemRegion::kL1,
                                MemRegion::kL2);
      rep.compute_cycles = tc.compute;
      rep.dma_cycles = tc.dma_in + tc.dma_out;
      step.tile_costs.push_back(tc);
      rep.total_cycles = pipeline_total(step.tile_costs);
      break;
    }
    case OpType::kSoftmax: {
      const int t = in_shape[0], l = in_shape[1];
      chunked(t, l, l, 3 * l, 0, [&](int rows) {
        Tensor8 chunk = Tensor8::random({rows, l}, rng_);
        return run_softmax(cluster_, chunk, node.exp_lut).result.wall_cycles;
      });
      break;
    }
    case OpType::kLayerNorm: {
      const int t = in_shape[0], l = in_shape[1];
      chunked(t, l, l, 3 * l, 0, [&](int rows) {
        Tensor8 chunk = Tensor8::random({rows, l}, rng_);
        return run_layernorm(cluster_, chunk, node.gamma, node.beta)
            .result.wall_cycles;
      });
      break;
    }
    default: DECIMATE_FAIL("bad vec op");
  }
}

CompiledPlan Compiler::compile(const Graph& graph) {
  DECIMATE_CHECK(opt_.batch >= 1,
                 "CompileOptions::batch must be >= 1, got " << opt_.batch);
  DECIMATE_CHECK(opt_.num_clusters >= 1,
                 "CompileOptions::num_clusters must be >= 1, got "
                     << opt_.num_clusters);
  CompiledPlan plan;
  plan.graph = &graph;
  plan.options = opt_;

  // decide weight residency for the whole model
  int64_t deployed = 0;
  for (const auto& node : graph.nodes()) {
    if (node.op == OpType::kConv2d || node.op == OpType::kFc) {
      deployed += deployed_weight_bytes(node, select_kernel(node, opt_));
    }
  }
  w_region_ = weight_region(deployed);
  plan.weight_region = w_region_;
  plan.weight_bytes = deployed;

  for (int id = 1; id < graph.size(); ++id) {
    const Node& node = graph.node(id);
    PlanStep step;
    step.node_id = id;
    step.op = node.op;
    step.report.name = node.name;
    switch (node.op) {
      case OpType::kConv2d:
      case OpType::kFc:
      case OpType::kMatmul:
        compile_gemm_node(graph, node, step);
        break;
      case OpType::kInput:
        DECIMATE_FAIL("unexpected input node");
        break;
      default:
        compile_vec_node(graph, node, step);
        break;
    }
    plan.total_cycles += step.report.total_cycles;
    plan.total_macs += step.report.macs;
    plan.steps.push_back(std::move(step));
  }
  // static post-pass: reject plans the verifier can prove wrong
  if (opt_.verify_plans) {
    VerifyReport report = verify_plan(plan);
    if (!report.ok()) throw VerifyError(std::move(report));
  }
  return plan;
}

}  // namespace decimate
