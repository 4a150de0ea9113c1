// resnet18_nm_closed: one client, closed loop. Each call submits a batch
// of 8 ResNet18 images (32x32x4) to ExecutionEngine::run_batch on a
// batch-fused PlanStore plan, waits, and submits the next, rotating
// round-robin over dense, 1:8 and 1:16 (all compiled with enable_isa, the
// paper's Table 2 configuration). Conv kernels and the exec batch
// pipeline do almost all the work; serve admission and FC kernels almost
// none.

#include <map>
#include <memory>

#include "exec/engine.hpp"
#include "models/models.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace decimate;

int run_closed_loop(const Args& args) {
  Outcome out;
  Tracer tracer(args.trace);
  constexpr int kModels = static_cast<int>(std::size(kClosedM));

  std::vector<Graph> graphs;
  std::vector<OraclePool> pools;
  for (int i = 0; i < kModels; ++i) {
    Resnet18Options mopt;
    mopt.sparsity_m = kClosedM[i];
    graphs.push_back(build_resnet18(mopt));
    pools.push_back(make_oracle(graphs.back(), kClosedPool,
                                args.seed * 1009 + static_cast<uint64_t>(i)));
  }

  // --- setup: fresh PlanStore -> add_model -> warm the fused batch-8 plans
  CompileOptions copt;
  copt.enable_isa = true;
  std::unique_ptr<PlanStore> store;
  std::vector<int> ids;
  SetupSampler setups(
      tracer, out,
      [&] {
        store = std::make_unique<PlanStore>(copt);
        ids.clear();
        for (const Graph& g : graphs) {
          const int id = store->add_model(g);
          warm_plan(*store, tracer, id, kClosedBatch, 1);
          ids.push_back(id);
        }
        return SetupCounts{store->compiles(),
                           store->shared_latencies()->misses(),
                           store->registry_loads()};
      },
      [&] {
        std::vector<const CompiledPlan*> plans;
        for (const int id : ids) {
          plans.push_back(&store->plan(id, kClosedBatch));
        }
        return plans;
      });
  setups.sample(kSetupReps, "before the run");

  std::vector<const CompiledPlan*> plans;
  double mcycles = 0.0;
  for (const int id : ids) {
    plans.push_back(&store->plan(id, kClosedBatch));
    mcycles += static_cast<double>(store->plan(id, 1).total_cycles) / 1e6 /
               kModels;
  }
  out.set("mcu_mcycles_per_img", mcycles, "Mcycles");

  // gemm steps per plan and family: the always-on exec.kernel.* counters
  // must move by exactly (batches x images x steps) over the timed loop
  std::map<std::string, uint64_t> calls_per_image[kModels];
  for (int i = 0; i < kModels; ++i) {
    for (const PlanStep& s : plans[static_cast<size_t>(i)]->steps) {
      if (is_gemm(plans[static_cast<size_t>(i)]->graph->node(s.node_id).op)) {
        ++calls_per_image[i][host_impl_name(s.host.impl)];
      }
    }
  }

  ExecutionEngine engine;
  engine.set_workers(kClosedWorkers);
  Rng rng(args.seed ^ 0xc105edULL);
  const auto draw_batch = [&](int model, std::vector<int>& idx) {
    std::vector<Tensor8> in;
    idx.clear();
    for (int j = 0; j < kClosedBatch; ++j) {
      idx.push_back(rng.uniform_int(0, kClosedPool - 1));
      in.push_back(pools[static_cast<size_t>(model)]
                       .inputs[static_cast<size_t>(idx.back())]);
    }
    return in;
  };
  // untimed warm-up: one batch per plan pages in weights and starts the
  // engine's worker pool
  {
    std::vector<int> idx;
    for (int i = 0; i < kModels; ++i) {
      engine.run_batch(*plans[static_cast<size_t>(i)], draw_batch(i, idx));
    }
  }

  std::map<std::string, uint64_t> kernel_before;
  for (const auto& m : calls_per_image) {
    for (const auto& [fam, n] : m) {
      kernel_before[fam] = counter("exec.kernel." + fam);
    }
  }
  std::map<std::string, uint64_t> kernel_expected;

  std::vector<double> batch_ms;
  std::vector<std::vector<double>> batch_ms_by_model(kModels);
  std::vector<double> round_traced_ms, round_untraced_ms;
  int64_t ok = 0, in_deadline = 0;
  uint64_t batch_id = 0;
  std::vector<int> idx;
  const uint64_t t_start = now_ns();
  const uint64_t t_end = t_start + static_cast<uint64_t>(args.seconds * 1e9);
  // whole rounds only, so every model gets the same share of the run
  for (int round = 0; now_ns() < t_end; ++round) {
    // the traced run alternates traced and untraced rounds; the gap
    // between the two is the tracer's own overhead
    tracer.set_active(round % 2 == 0);
    const uint64_t r0 = now_ns();
    for (int i = 0; i < kModels; ++i) {
      const std::vector<Tensor8> in = draw_batch(i, idx);
      BatchRun run;
      bool threw = false;
      const uint64_t b0 = now_ns();
      try {
        const Tracer::Scope span(tracer, "exec.run_batch", ++batch_id);
        run = engine.run_batch(*plans[static_cast<size_t>(i)], in);
      } catch (const std::exception& e) {
        threw = true;
        out.check(false, std::string("run_batch threw: ") + e.what());
      }
      const double ms = static_cast<double>(now_ns() - b0) / 1e6;
      batch_ms.push_back(ms);
      batch_ms_by_model[static_cast<size_t>(i)].push_back(ms);
      out.attempted += kClosedBatch;
      for (const auto& [fam, n] : calls_per_image[i]) {
        kernel_expected[fam] += n * kClosedBatch;
      }
      const OraclePool& pool = pools[static_cast<size_t>(i)];
      for (size_t j = 0; j < kClosedBatch; ++j) {
        const bool exact =
            !threw && run.runs[j].output ==
                          pool.outputs[static_cast<size_t>(idx[j])];
        if (!exact) {
          ++out.failed;
          continue;
        }
        ++ok;
        in_deadline += ms <= kClosedDeadlineMs[i] ? 1 : 0;
      }
    }
    (tracer.active() ? round_traced_ms : round_untraced_ms)
        .push_back(static_cast<double>(now_ns() - r0) / 1e6);
  }
  const double elapsed = static_cast<double>(now_ns() - t_start) / 1e9;
  tracer.set_active(true);
  for (const auto& [fam, n] : kernel_expected) {
    const uint64_t moved = counter("exec.kernel." + fam) - kernel_before[fam];
    out.check(moved == n, "exec.kernel." + fam + " moved by " +
                              std::to_string(moved) + ", run_batch ran " +
                              std::to_string(n) + " steps");
  }

  // Whole-run rates, not a median of per-round rates: dense batch times
  // are bimodal on a shared host, and a median lands between the modes.
  out.set("throughput_img_s", static_cast<double>(ok) / elapsed, "img/s");
  out.set("goodput_img_s", static_cast<double>(in_deadline) / elapsed,
          "img/s");
  latency_metrics(batch_ms, kClosedTailQ, "run_batch calls", out);
  out.set("slo_frac",
          static_cast<double>(in_deadline) / static_cast<double>(out.attempted),
          "ratio");
  out.set("refused_frac", 0.0, "ratio");  // no admission in a closed loop
  out.set("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.note("closed loop: " + std::to_string(batch_ms.size()) +
           " run_batch calls of " + std::to_string(kClosedBatch) +
           " images in " + std::to_string(elapsed) + " s");

  if (tracer.enabled()) {
    out.set("exec.batch_ms_p50", median(tracer.durations_ms("exec.run_batch")),
            "ms");
    std::vector<PlanProfile> profiles;
    const char* names[] = {"resnet18-dense@b8", "resnet18-m8@b8",
                           "resnet18-m16@b8"};
    for (int i = 0; i < kModels; ++i) {
      const OraclePool& pool = pools[static_cast<size_t>(i)];
      profiles.push_back(replay_profile(*plans[static_cast<size_t>(i)],
                                        "resnet18", names[i], 1.0 / kModels,
                                        pool.inputs[0], pool.outputs[0],
                                        kReplayReps, tracer, out));
    }
    profile_metrics(profiles, out);
    // pipeline efficiency: replayed single-thread work per batch over the
    // wall the batch took on all worker threads
    const double threads = std::min(kClosedBatch, kClosedWorkers);
    double work_ns = 0.0, wall_ns = 0.0;
    for (int i = 0; i < kModels; ++i) {
      work_ns += profiles[static_cast<size_t>(i)].total_ns() * kClosedBatch;
      wall_ns += median(batch_ms_by_model[static_cast<size_t>(i)]) * 1e6 *
                 threads;
    }
    out.set("exec.pipeline_eff", wall_ns > 0 ? work_ns / wall_ns : 0.0,
            "ratio");
    out.set("trace.overhead_pct",
            (median(round_traced_ms) / median(round_untraced_ms) - 1.0) * 100.0,
            "%");
    for (const char* name :
         {"artifact.bytes", "serve.queue_wait_ms_p50",
          "serve.queue_wait_ms_p99", "serve.exec_ms_p50", "serve.predict_err_pct.resnet18",
          "serve.predict_err_pct.vit_ffn", "serve.rejected_frac",
          "serve.shed_frac", "serve.batch_size_mean", "serve.retries",
          "serve.redispatched", "shard.sharded_frac",
          "shard.data_parallel_frac", "loadgen.lag_ms_p99"}) {
      out.set(name, 0.0);  // no serving layer on this workload
    }
    write_trace_outputs(args, profiles, tracer);
  }
  // replaces the store: nothing may use `plans` after this
  setups.sample(kSetupReps, "after the run");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return emit(out, args.trace);
}

}  // namespace perfbench
