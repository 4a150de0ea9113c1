#include "shard/multi_cluster_engine.hpp"

#include <algorithm>
#include <functional>
#include <iterator>

#include "compiler/fingerprint.hpp"
#include "exec/node_exec.hpp"
#include "nn/host_kernels.hpp"
#include "nn/ref_ops.hpp"
#include "trace/trace.hpp"

namespace decimate {

namespace {

// Stable span names for cluster shard work (trace names must outlive the
// export, so no per-call formatting).
const char* cluster_span_name(size_t c) {
  static const char* const names[] = {"cluster0", "cluster1", "cluster2",
                                      "cluster3", "cluster4", "cluster5",
                                      "cluster6", "cluster7"};
  return c < std::size(names) ? names[c] : "cluster8+";
}

}  // namespace

MultiClusterEngine::MultiClusterEngine(int num_clusters)
    : num_clusters_(num_clusters), planner_(num_clusters) {}

WorkerPool& MultiClusterEngine::pool() {
  // thunks come one per cluster and the caller participates, so
  // num_clusters - 1 parked threads saturate every sharded step without
  // re-spawning threads per step
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(std::max(0, num_clusters_ - 1));
  }
  return *pool_;
}

void MultiClusterEngine::run_parallel(
    std::vector<std::function<void()>>& thunks) {
  if (thunks.size() == 1) {
    thunks.front()();
    return;
  }
  pool().run(static_cast<int>(thunks.size()),
             [&](int i) { thunks[static_cast<size_t>(i)](); });
}

const ShardPlan& MultiClusterEngine::shard_plan(const CompiledPlan& plan) {
  DECIMATE_CHECK(plan.graph != nullptr, "plan has no graph");
  const uint64_t key = plan_fingerprint(*plan.graph, plan.options);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++plans_;
    // the schedule is content-addressed (tile indices), so it outlives
    // the particular CompiledPlan object and serves any identical one
    it = cache_.emplace(key, planner_.plan(plan)).first;
  }
  return it->second;
}

void MultiClusterEngine::exec_gemm_shards(const StepShard& ss,
                                          const PlanStep& step,
                                          const Node& node,
                                          const Tensor8& in,
                                          const Tensor8* b_operand,
                                          Tensor8& out) {
  // operand selection mirrors ExecutionEngine::exec_gemm_node
  const Tensor8* weights = &node.weights;
  Tensor8 bmat;
  Tensor32 zero_bias;
  const Tensor32* bias = &node.bias;
  if (node.op == OpType::kMatmul) {
    DECIMATE_CHECK(b_operand != nullptr, "matmul needs a second operand");
    bmat = node.transpose_b ? transpose2d(*b_operand) : *b_operand;
    weights = &bmat;
    zero_bias = Tensor32({node.fc.k}, 0);
    bias = &zero_bias;
  }
  out = Tensor8(node.out_shape);

  if (ss.axis == ShardAxis::kFcC) {
    // input-feature split: int32 partial sums per cluster, reduced in
    // ascending cluster order on top of the bias, then one requant —
    // exactly the unsharded accumulation sequence, regrouped.
    std::vector<const ShardSlice*> active;
    for (const ShardSlice& slice : ss.slices) {
      if (slice.active()) active.push_back(&slice);
    }
    DECIMATE_CHECK(!active.empty(), "kFcC step with no active slices");
    std::vector<Tensor32> partials(active.size());
    std::vector<std::function<void()>> thunks;
    thunks.reserve(active.size());
    for (size_t j = 0; j < active.size(); ++j) {
      const size_t cluster = static_cast<size_t>(active[j] - ss.slices.data());
      thunks.emplace_back([&, j, cluster] {
        trace::TraceScope span(trace::Cat::kShard, cluster_span_name(cluster));
        span.cycles(ss.slices[cluster].cycles);
        span.sarg("node", node.name.c_str());
        partials[j] =
            use_host_kernels_
                ? host_fc_s32_partial(step.host, in, *weights,
                                      active[j]->c_range.first,
                                      active[j]->c_range.second)
                : fc_s32_partial(in, *weights, active[j]->c_range.first,
                                 active[j]->c_range.second);
      });
    }
    run_parallel(thunks);
    const int t = in.dim(0), k = weights->dim(0);
    for (int ti = 0; ti < t; ++ti) {
      for (int ki = 0; ki < k; ++ki) {
        int32_t acc = (*bias)[ki];
        for (const Tensor32& p : partials) acc += p.at({ti, ki});
        out.at({ti, ki}) = node.rq.apply(acc);
      }
    }
    return;
  }

  // output-tile shards: disjoint slices of `out`, written concurrently
  std::vector<std::function<void()>> thunks;
  for (size_t c = 0; c < ss.slices.size(); ++c) {
    const ShardSlice& slice = ss.slices[c];
    if (slice.tiles.empty()) continue;
    thunks.emplace_back([&, &slice = slice, c] {
      trace::TraceScope span(trace::Cat::kShard, cluster_span_name(c));
      span.cycles(slice.cycles);
      span.sarg("node", node.name.c_str());
      for (int idx : slice.tiles) {
        const ShardTile& m = step.tiles_meta[static_cast<size_t>(idx)];
        if (node.op == OpType::kConv2d) {
          if (use_host_kernels_) {
            host_conv2d_s8_into(step.host, in, node.weights, node.bias,
                                node.conv, node.rq, m.a_s, m.a_e, m.k_s,
                                m.k_e, out);
          } else {
            conv2d_s8_into(in, node.weights, node.bias, node.conv, node.rq,
                           m.a_s, m.a_e, m.k_s, m.k_e, out);
          }
        } else if (use_host_kernels_) {
          host_fc_s8_into(step.host, in, *weights, *bias, node.rq, m.a_s,
                          m.a_e, m.k_s, m.k_e, out);
        } else {
          fc_s8_into(in, *weights, *bias, node.rq, m.a_s, m.a_e, m.k_s,
                     m.k_e, out);
        }
      }
    });
  }
  DECIMATE_CHECK(!thunks.empty(), "gemm step with no assigned tiles");
  run_parallel(thunks);
}

std::vector<uint64_t> MultiClusterEngine::data_parallel_completions(
    const CompiledPlan& plan, int n, int clusters) {
  DECIMATE_CHECK(clusters >= 1, "need at least one cluster");
  std::vector<uint64_t> completions(static_cast<size_t>(std::max(n, 0)));
  // image i is the (i / clusters)-th image of cluster i % clusters; it
  // finishes when its cluster's pipelined prefix of that many images does
  for (int i = 0; i < n; ++i) {
    const int position = i / clusters + 1;
    completions[static_cast<size_t>(i)] =
        ExecutionEngine::modeled_batch_cycles(plan, position);
  }
  return completions;
}

std::vector<uint64_t> MultiClusterEngine::data_parallel_busy_cycles(
    const CompiledPlan& plan, int n, int clusters) {
  DECIMATE_CHECK(clusters >= 1, "need at least one cluster");
  std::vector<uint64_t> busy(static_cast<size_t>(clusters), 0);
  for (int c = 0; c < clusters && c < n; ++c) {
    const int images = (n - c - 1) / clusters + 1;  // round-robin share
    busy[static_cast<size_t>(c)] =
        ExecutionEngine::modeled_batch_cycles(plan, images);
  }
  return busy;
}

ShardedRun MultiClusterEngine::run(const CompiledPlan& plan,
                                   const Tensor8& input) {
  trace::TraceScope run_span(trace::Cat::kShard, "mce.run");
  run_span.arg("clusters", num_clusters_);
  const ShardPlan& sp = shard_plan(plan);  // validates batch == 1
  run_span.cycles(sp.critical_path_cycles);
  const Graph& graph = *plan.graph;
  DECIMATE_CHECK(static_cast<int>(plan.steps.size()) == graph.size() - 1,
                 "plan does not match graph");
  DECIMATE_CHECK(sp.steps.size() == plan.steps.size(),
                 "shard plan does not match plan");
  DECIMATE_CHECK(input.shape() == graph.node(0).out_shape,
                 "graph input shape mismatch");

  ShardedRun result;
  NetworkRun& net = result.run;
  net.weight_bytes = plan.weight_bytes;
  std::vector<Tensor8> outputs(static_cast<size_t>(graph.size()));
  std::vector<const Tensor8*> values(static_cast<size_t>(graph.size()),
                                     nullptr);
  values[0] = &input;

  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    const StepShard& ss = sp.steps[i];
    const Node& node = graph.node(step.node_id);
    Tensor8& out = outputs[static_cast<size_t>(step.node_id)];
    const Tensor8& in0 = *values[static_cast<size_t>(node.inputs.at(0))];
    switch (node.op) {
      case OpType::kConv2d:
      case OpType::kFc:
        exec_gemm_shards(ss, step, node, in0, nullptr, out);
        break;
      case OpType::kMatmul:
        exec_gemm_shards(ss, step, node, in0,
                         values[static_cast<size_t>(node.inputs.at(1))],
                         out);
        break;
      default: {
        // row-parallel and serial vector ops: numerics are element-wise
        // identical however the rows are split, so the reference runs
        // once; the shard plan still accounts their chunk distribution.
        std::vector<const Tensor8*> ins;
        ins.reserve(node.inputs.size());
        for (int in_id : node.inputs) {
          ins.push_back(values[static_cast<size_t>(in_id)]);
        }
        exec_vec_node_ref(node, ins, out);
        break;
      }
    }
    DECIMATE_CHECK(out.shape() == node.out_shape,
                   "node " << node.name << " produced unexpected shape");
    values[static_cast<size_t>(step.node_id)] = &out;
    // per-layer totals become the sharded critical paths, so layer rows
    // still sum to the end-to-end number
    LayerReport rep = step.report;
    rep.total_cycles = ss.critical_cycles;
    net.total_cycles += ss.critical_cycles;
    net.total_macs += rep.macs;
    net.layers.push_back(std::move(rep));
  }
  if (plan.steps.empty()) {
    net.output = input;
  } else {
    net.output = std::move(outputs.back());
  }

  result.num_clusters = num_clusters_;
  result.critical_path_cycles = sp.critical_path_cycles;
  result.single_cluster_cycles = plan.total_cycles;
  result.reduction_cycles = sp.reduction_cycles;
  result.cluster_busy_cycles = sp.cluster_busy_cycles;
  return result;
}

}  // namespace decimate
