#include "exec/engine.hpp"

#include <algorithm>
#include <thread>

#include "exec/node_exec.hpp"
#include "exec/tile_runner.hpp"
#include "nn/host_kernel_instances.hpp"
#include "trace/trace.hpp"

namespace decimate {

namespace {

std::string batch_mismatch_message(int fused_batch, int got) {
  std::ostringstream oss;
  oss << "plan was compiled batch-fused for " << fused_batch
      << " images but run_batch got " << got
      << "; recompile with CompileOptions::batch == " << got
      << " (or 1 for the unfused pipeline)";
  return oss.str();
}

}  // namespace

BatchMismatchError::BatchMismatchError(int fused_batch, int got)
    : Error(batch_mismatch_message(fused_batch, got)),
      fused_batch_(fused_batch),
      got_(got) {}

int ExecutionEngine::hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

std::shared_ptr<WorkerPool> ExecutionEngine::worker_pool(int target) {
  // the caller thread participates in every job, so a pool of N-1
  // threads gives N-way parallelism. The pool is sized to the engine's
  // worker target (not the batch size), so it resizes only when
  // set_workers changes — including shrinking, so the documented knob is
  // honored. Callers keep a shared_ptr: a concurrent run_batch that
  // triggers a resize retires the old pool only after its last in-flight
  // job releases it.
  const int want = std::max(0, target - 1);
  const std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr || pool_->threads() != want) {
    pool_ = std::make_shared<WorkerPool>(want);
  }
  return pool_;
}

Cluster& ExecutionEngine::verify_cluster(const CompileOptions& opt) {
  const ClusterConfig cfg = cluster_config_from(opt);
  if (verify_cluster_ == nullptr || !(cfg == verify_cfg_)) {
    verify_cluster_ = std::make_unique<Cluster>(cfg);
    verify_cfg_ = cfg;
  }
  return *verify_cluster_;
}

void ExecutionEngine::exec_gemm_node(const CompiledPlan& plan,
                                     const PlanStep& step, const Node& node,
                                     const Tensor8& in,
                                     const Tensor8* b_operand, int parts,
                                     Tensor8& out) {
  // numerics: host kernels (sparse N:M gather / blocked dense) or the
  // scalar reference ops — bit-identical either way. Large steps split
  // their output `parts` ways across the worker pool (intra-image
  // parallelism) unless this call already runs inside a pool task
  // (run_batch image pipeline: the split would execute inline anyway, so
  // skip the pool round-trip) or verify mode needs the serial path.
  if (use_host_kernels_ && !verify_with_sim_ && !WorkerPool::in_task() &&
      parts > 1 && step.report.macs >= intra_mac_floor_) {
    exec_gemm_node_host_parallel(step, node, in, b_operand,
                                 *worker_pool(parts), parts, out);
  } else {
    exec_gemm_node_host(step, node, in, b_operand, use_host_kernels_, out);
  }

  if (!verify_with_sim_ || step.report.tiles != 1) return;
  if (node.op == OpType::kConv2d) {
    const ConvGeom& g = node.conv;
    TileRunner runner(verify_cluster(plan.options));
    KernelRun kr;
    if (step.has_packed) {
      kr = runner.conv(step.choice.kind, g, node.rq, in, nullptr,
                       &step.packed, node.bias);
    } else {
      kr = runner.conv(step.choice.kind, g, node.rq, in, &node.weights,
                       nullptr, node.bias);
    }
    DECIMATE_CHECK(kr.output == out,
                   "verify: ISS conv output mismatch on " << node.name);
    return;
  }
  const FcGeom& g = node.fc;
  if (node.op == OpType::kFc &&
      (step.choice.kind == KernelKind::kFcSparseSw || g.k % 2 == 0)) {
    TileRunner runner(verify_cluster(plan.options));
    KernelRun kr;
    if (step.has_packed) {
      kr = runner.fc(step.choice.kind, g, node.rq, in, nullptr, &step.packed,
                     node.bias);
    } else {
      kr = runner.fc(step.choice.kind, g, node.rq, in, &node.weights, nullptr,
                     node.bias);
    }
    DECIMATE_CHECK(kr.output == out,
                   "verify: ISS fc output mismatch on " << node.name);
  }
}

NetworkRun ExecutionEngine::run(const CompiledPlan& plan,
                                const Tensor8& input) {
  return run_split(plan, input, 1);
}

NetworkRun ExecutionEngine::run_split(const CompiledPlan& plan,
                                      const Tensor8& input, int parts) {
  DECIMATE_CHECK(plan.graph != nullptr, "plan has no graph");
  const Graph& graph = *plan.graph;
  DECIMATE_CHECK(static_cast<int>(plan.steps.size()) == graph.size() - 1,
                 "plan does not match graph");

  NetworkRun net;
  net.weight_bytes = plan.weight_bytes;
  std::vector<Tensor8> outputs(static_cast<size_t>(graph.size()));
  DECIMATE_CHECK(input.shape() == graph.node(0).out_shape,
                 "graph input shape mismatch");
  // node 0's value is the caller's input, aliased — not copied: the
  // O(input) deep copy per invocation is pure overhead on the serving path
  std::vector<const Tensor8*> values(static_cast<size_t>(graph.size()),
                                     nullptr);
  values[0] = &input;

  trace::TraceScope run_span(trace::Cat::kExec, "engine.run");
  run_span.cycles(plan.total_cycles);

  for (const PlanStep& step : plan.steps) {
    const Node& node = graph.node(step.node_id);
    Tensor8& out = outputs[static_cast<size_t>(step.node_id)];
    const Tensor8& in0 = *values[static_cast<size_t>(node.inputs.at(0))];
    // span name points into the graph (outlives the plan); family and
    // instance are static literals from the kernel registry
    trace::TraceScope step_span(trace::Cat::kKernel, node.name.c_str());
    step_span.cycles(step.report.total_cycles);
    if (node.op == OpType::kConv2d || node.op == OpType::kFc ||
        node.op == OpType::kMatmul) {
      step_span.sarg("family", host_impl_name(step.host.impl));
      step_span.sarg("instance", host_instance_name(step.host));
    }
    switch (node.op) {
      case OpType::kConv2d:
      case OpType::kFc:
        exec_gemm_node(plan, step, node, in0, nullptr, parts, out);
        break;
      case OpType::kMatmul:
        exec_gemm_node(plan, step, node, in0,
                       values[static_cast<size_t>(node.inputs.at(1))], parts,
                       out);
        break;
      default: {
        std::vector<const Tensor8*> ins;
        ins.reserve(node.inputs.size());
        for (int i : node.inputs) {
          ins.push_back(values[static_cast<size_t>(i)]);
        }
        exec_vec_node_ref(node, ins, out);
        break;
      }
    }
    DECIMATE_CHECK(out.shape() == node.out_shape,
                   "node " << node.name << " produced unexpected shape");
    values[static_cast<size_t>(step.node_id)] = &out;
    net.total_cycles += step.report.total_cycles;
    net.total_macs += step.report.macs;
    net.layers.push_back(step.report);
  }
  if (plan.steps.empty()) {
    net.output = input;
  } else {
    net.output = std::move(outputs.back());
  }
  return net;
}

uint64_t ExecutionEngine::modeled_batch_cycles(const CompiledPlan& plan,
                                               int n) {
  if (n <= 0) return 0;
  const int fused_b = std::max(1, plan.options.batch);
  std::vector<TileCost> stream;
  uint64_t total = 0;
  const auto flush = [&] {
    total += pipeline_total(stream);
    stream.clear();
  };
  // A pipelined step's tiles join the running DMA/compute pipeline, so
  // consecutive images/layers overlap each other's ramp-in/out. Serialized
  // work (non-double-buffered tiles, marshalling DMA, matmul transpose)
  // flushes the pipeline first.
  const auto append_step = [&](const PlanStep& step) {
    if (!step.tile_costs.empty()) {
      if (step.pipelined) {
        stream.insert(stream.end(), step.tile_costs.begin(),
                      step.tile_costs.end());
      } else {
        flush();
        for (const TileCost& tc : step.tile_costs) {
          total += tc.compute + tc.dma_in + tc.dma_out;
        }
      }
    }
    if (step.serial_cycles != 0) {
      flush();
      total += step.serial_cycles;
    }
  };
  if (fused_b > 1) {
    // layer-major schedule: a batch-fused step's tile stream already
    // spans a whole batch of fused_b images, so it runs once per batch
    const int batches = (n + fused_b - 1) / fused_b;
    for (const PlanStep& step : plan.steps) {
      const int repeat = step.batch_fused ? batches : n;
      for (int r = 0; r < repeat; ++r) append_step(step);
    }
  } else {
    // image-major software pipeline: layer i+1 of image m overlaps layer
    // i of image m+1
    for (int img = 0; img < n; ++img) {
      for (const PlanStep& step : plan.steps) append_step(step);
    }
  }
  flush();
  return total;
}

BatchRun ExecutionEngine::run_batch(const CompiledPlan& plan,
                                    std::span<const Tensor8> inputs) {
  BatchRun out;
  const int n = static_cast<int>(inputs.size());
  trace::TraceScope batch_span(trace::Cat::kExec, "engine.run_batch");
  batch_span.arg("images", n);
  // A batch-fused plan's tile schedule (and its per-image amortized
  // reports) covers exactly options.batch images; serving a different
  // span would silently stamp a mismatched cycle report on every run.
  if (plan.options.batch > 1 && n != plan.options.batch) {
    throw BatchMismatchError(plan.options.batch, n);
  }
  out.runs.resize(static_cast<size_t>(n));

  const int target = std::max(1, workers_ > 0 ? workers_ : hardware_threads());
  // the verify cluster is shared state: verify mode runs serially
  const int workers = verify_with_sim_ ? 1 : target;

  if (n == 1) {
    // one image would leave every worker but the caller idle: split its
    // gemm steps over the same pool instead (the intra-image path, so
    // the bytes match a serial run at any width)
    out.runs[0] = run_split(plan, inputs[0], workers);
  } else if (workers == 1) {
    for (int i = 0; i < n; ++i) out.runs[static_cast<size_t>(i)] =
        run(plan, inputs[static_cast<size_t>(i)]);
  } else {
    // work-claiming pipeline on the persistent pool: each worker advances
    // one image through the plan's steps front-to-back, so at any moment
    // the batch occupies different pipeline depths (layer i+1 of image m
    // concurrent with layer i of image m+1); the pool's threads are
    // reused across batches instead of spawned per call (sized by the
    // engine's worker target — a small batch just leaves threads idle)
    worker_pool(target)->run(n, [&](int i) {
      out.runs[static_cast<size_t>(i)] =
          run(plan, inputs[static_cast<size_t>(i)]);
    });
  }

  for (const NetworkRun& r : out.runs) out.sequential_cycles += r.total_cycles;
  out.batch_cycles = modeled_batch_cycles(plan, n);
  batch_span.cycles(out.batch_cycles);
  return out;
}

}  // namespace decimate
