// Host wall-clock throughput: the repo's real-time (not modeled-cycle)
// perf baseline. Measures images/second and ns per dense-equivalent MAC
// of the host execution path — reference scalar ops vs the
// HostKernelDispatch instance library (SIMD blocked dense, N:M sparse
// gather) — across ResNet18 and the ViT FFN block, dense and sparse M in
// {4,8,16}, in three deployment shapes: single-image engine.run, a
// one-image engine.run_batch split over every hardware thread, and a
// pipelined engine.run_batch. Every host output is asserted bit-identical
// to the reference-kernel output.
// A second table micro-benches every registry kernel instance runnable on
// this CPU (ns/MAC on a representative geometry of its family).
//
// Exit-code gates (full run, SIMD host): sparse M=4 ResNet18 >= 4.5x the
// ref_ops baseline measured in the same run, dense ResNet18 (conv-
// dominated) >= 2x. On a scalar-only host the pre-SIMD gates apply
// (>= 2.5x sparse, >= 1x dense).
//
//   ./bench_host_throughput [--smoke] [--out PATH] [--trace-gate]
//
// --smoke shrinks the models so CI finishes in seconds. --trace-gate
// skips the bench and instead measures the runtime cost of span tracing
// (DECIMATE_TRACE builds): same binary, recording toggled off vs on,
// fails if the traced run is more than 5% slower. In untraced builds the
// gate passes vacuously — there is nothing to measure.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "nn/host_kernel_instances.hpp"
#include "nn/ref_ops.hpp"
#include "trace/trace.hpp"

using namespace decimate;

namespace {

struct Row {
  std::string model;
  int m = 0;  // 0 = dense
  std::string mode;  // ref | host | host_mt | host_batch
  double ms_per_img = 0.0;
  double img_per_s = 0.0;
  double ns_per_mac = 0.0;   // dense-equivalent MACs
  double speedup_vs_ref = 0.0;
  bool bit_exact = false;
};

/// Best-of-reps wall seconds of f() (steady clock).
template <typename F>
double time_best_s(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

struct BenchConfig {
  bool smoke = false;
  int reps = 3;
  int batch = 8;
};

/// One (model, m) workload through every mode, appending rows.
void bench_workload(const std::string& name, const Graph& graph,
                    const std::vector<int>& in_shape, int m,
                    const BenchConfig& cfg,
                    const std::shared_ptr<TileLatencyCache>& cache,
                    std::vector<Row>& rows) {
  Rng rng(23);
  const Tensor8 input = Tensor8::random(in_shape, rng);
  std::vector<Tensor8> batch_inputs;
  for (int i = 0; i < cfg.batch; ++i) {
    batch_inputs.push_back(Tensor8::random(in_shape, rng));
  }

  CompileOptions opt;  // SW kernel selection: sparse steps pack kSw layout
  Compiler compiler(opt, cache);
  const CompiledPlan plan = compiler.compile(graph);

  ExecutionEngine ref_engine;
  ref_engine.set_use_host_kernels(false);
  ExecutionEngine host_engine;  // host kernels on by default

  // reference outputs (the bit-exactness oracle for every mode)
  const NetworkRun ref_run = ref_engine.run(plan, input);
  std::vector<Tensor8> ref_batch_out;
  for (const Tensor8& bi : batch_inputs) {
    ref_batch_out.push_back(ref_engine.run(plan, bi).output);
  }
  const double macs = static_cast<double>(plan.total_macs);

  const auto add_row = [&](const std::string& mode, double s_per_img,
                           double ref_s, bool exact) {
    Row r;
    r.model = name;
    r.m = m;
    r.mode = mode;
    r.ms_per_img = s_per_img * 1e3;
    r.img_per_s = s_per_img > 0 ? 1.0 / s_per_img : 0.0;
    r.ns_per_mac = macs > 0 ? s_per_img * 1e9 / macs : 0.0;
    r.speedup_vs_ref = s_per_img > 0 ? ref_s / s_per_img : 0.0;
    r.bit_exact = exact;
    rows.push_back(r);
  };

  // --- ref: the scalar reference ops, single image -----------------------
  const double ref_s =
      time_best_s(cfg.reps, [&] { ref_engine.run(plan, input); });
  add_row("ref", ref_s, ref_s, true);

  // --- host: HostKernelDispatch, single image ----------------------------
  Tensor8 host_out;
  const double host_s = time_best_s(cfg.reps, [&] {
    host_out = host_engine.run(plan, input).output;
  });
  add_row("host", host_s, ref_s, host_out == ref_run.output);

  // --- host_batch: pipelined run_batch on the persistent pool ------------
  BatchRun batch_run;
  const double batch_s = time_best_s(
      cfg.reps, [&] { batch_run = host_engine.run_batch(plan, batch_inputs); });
  bool batch_exact = true;
  for (size_t i = 0; i < batch_run.runs.size(); ++i) {
    batch_exact = batch_exact && batch_run.runs[i].output == ref_batch_out[i];
  }
  add_row("host_batch", batch_s / cfg.batch, ref_s, batch_exact);

  // --- host_mt: one-image run_batch, split over every hardware thread ---
  ExecutionEngine mt_engine;  // workers default to hardware concurrency
  Tensor8 mt_out;
  const double mt_s = time_best_s(cfg.reps, [&] {
    mt_out = mt_engine.run_batch(plan, {&input, 1}).runs[0].output;
  });
  add_row("host_mt", mt_s, ref_s, mt_out == ref_run.output);
}

// ---------------------------------------------------------------------------
// Per-instance microbench: every registry instance runnable on this CPU,
// forced onto a representative geometry of its family, timed and checked
// bit-exact against the scalar reference. ns/MAC is dense-equivalent.
// ---------------------------------------------------------------------------

struct InstanceRow {
  std::string name;
  std::string isa;
  std::string family;
  std::string geometry;
  double ns_per_mac = 0.0;
  double speedup_vs_scalar = 0.0;  // vs the family's scalar instance
  bool bit_exact = false;
};

std::vector<InstanceRow> bench_instances(const BenchConfig& cfg) {
  Rng rng(31);
  const int reps = cfg.reps;
  // representative geometries, scaled down under --smoke
  const int hw = cfg.smoke ? 12 : 28, c = cfg.smoke ? 32 : 64;
  const int k = cfg.smoke ? 32 : 64;
  const ConvGeom g{hw, hw, c, k, 3, 3, 1, 1};
  const int tokens = cfg.smoke ? 48 : 196;
  const int fc_c = cfg.smoke ? 128 : 512, fc_k = cfg.smoke ? 128 : 512;
  const int m = 4;

  const auto rand_bias = [&rng](int n) {
    Tensor32 b({n});
    for (int i = 0; i < n; ++i) b[i] = rng.uniform_int(-2000, 2000);
    return b;
  };
  const Tensor8 conv_in = Tensor8::random({g.iy, g.ix, g.c}, rng);
  const Tensor32 conv_bias = rand_bias(g.k);
  const Tensor8 fc_in = Tensor8::random({tokens, fc_c}, rng);
  const Tensor32 fc_bias = rand_bias(fc_k);
  const Requant rq{13, 13};

  const Tensor8 conv_dense_w = Tensor8::random({g.k, g.fsz()}, rng);
  Tensor8 conv_sparse_w = Tensor8::random({g.k, g.fsz()}, rng);
  nm_prune(conv_sparse_w.flat(), g.k, g.fsz(), 1, m);
  const Tensor8 fc_dense_w = Tensor8::random({fc_k, fc_c}, rng);
  Tensor8 fc_sparse_w = Tensor8::random({fc_k, fc_c}, rng);
  nm_prune(fc_sparse_w.flat(), fc_k, fc_c, 1, m);

  const NmPacked conv_packed =
      nm_pack(conv_sparse_w.flat(), g.k, g.fsz(), m, NmLayout::kSw);
  const NmPacked fc_packed =
      nm_pack(fc_sparse_w.flat(), fc_k, fc_c, m, NmLayout::kSw);

  const double conv_macs = static_cast<double>(g.oy()) * g.ox() * g.k *
                           static_cast<double>(g.fsz());
  const double fc_macs =
      static_cast<double>(tokens) * fc_k * static_cast<double>(fc_c);

  std::vector<InstanceRow> rows;
  std::vector<int> row_family;  // parallel to rows, for the speedup pass
  double scalar_ns[5] = {};     // per family, filled by the scalar instances
  for (int id = 0; id < host_instance_count(); ++id) {
    const HostInstanceInfo& info = host_instance_info(id);
    if (info.isa > host_isa_detected()) continue;

    InstanceRow row;
    row.name = info.name;
    row.isa = host_isa_name(info.isa);
    row.family = host_impl_name(info.family);
    row.geometry = info.geometry;

    double s = 0.0, macs = 0.0;
    if (info.family == HostImpl::kDenseConv ||
        info.family == HostImpl::kSparseConv) {
      const bool sparse = info.family == HostImpl::kSparseConv;
      const Tensor8& w = sparse ? conv_sparse_w : conv_dense_w;
      HostKernelDispatch d =
          host_dispatch_for_conv(g, sparse ? &conv_packed : nullptr);
      host_force_instance(d, id);
      const Tensor8 ref = conv2d_s8(conv_in, w, conv_bias, g, rq);
      Tensor8 out;
      s = time_best_s(reps, [&] {
        out = host_conv2d_s8(d, conv_in, w, conv_bias, g, rq);
      });
      row.bit_exact = out == ref;
      macs = conv_macs;
    } else {
      const bool sparse = info.family == HostImpl::kSparseFc;
      const Tensor8& w = sparse ? fc_sparse_w : fc_dense_w;
      HostKernelDispatch d = host_dispatch_for_fc(
          fc_k, fc_c, sparse ? &fc_packed : nullptr, tokens);
      host_force_instance(d, id);
      const Tensor8 ref = fc_s8(fc_in, w, fc_bias, rq);
      Tensor8 out;
      s = time_best_s(reps,
                      [&] { out = host_fc_s8(d, fc_in, w, fc_bias, rq); });
      row.bit_exact = out == ref;
      macs = fc_macs;
    }
    row.ns_per_mac = macs > 0 ? s * 1e9 / macs : 0.0;
    if (info.isa == HostIsa::kScalar) {
      scalar_ns[static_cast<int>(info.family)] = row.ns_per_mac;
    }
    row_family.push_back(static_cast<int>(info.family));
    rows.push_back(row);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const double base = scalar_ns[row_family[i]];
    rows[i].speedup_vs_scalar =
        rows[i].ns_per_mac > 0 ? base / rows[i].ns_per_mac : 0.0;
  }
  return rows;
}

#ifndef DECIMATE_BUILD_TYPE
#define DECIMATE_BUILD_TYPE "unknown"
#endif

/// What the numbers were measured with: build type, compiler, the ISA
/// tier instance selection detected, and the host's thread count.
struct BuildInfo {
  std::string build_type = DECIMATE_BUILD_TYPE;
#if defined(__clang__)
  std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  std::string compiler = "gcc " __VERSION__;
#else
  std::string compiler = "unknown";
#endif
  std::string isa = host_isa_name(host_isa_detected());
  unsigned threads = std::thread::hardware_concurrency();
};

void emit_json(std::ostream& os, bool smoke, const BuildInfo& build,
               const std::vector<Row>& rows,
               const std::vector<InstanceRow>& instances) {
  os << "{\n  \"bench\": \"host_throughput\",\n  \"smoke\": "
     << (smoke ? "true" : "false") << ",\n  \"build_type\": \""
     << build.build_type << "\",\n  \"compiler\": \"" << build.compiler
     << "\",\n  \"host_isa\": \"" << build.isa
     << "\",\n  \"hardware_concurrency\": " << build.threads
     << ",\n  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"model\": \"" << r.model << "\", \"m\": " << r.m
       << ", \"mode\": \"" << r.mode
       << "\", \"ms_per_img\": " << r.ms_per_img
       << ", \"img_per_s\": " << r.img_per_s
       << ", \"ns_per_mac\": " << r.ns_per_mac
       << ", \"speedup_vs_ref\": " << r.speedup_vs_ref
       << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"instances\": [\n";
  for (size_t i = 0; i < instances.size(); ++i) {
    const InstanceRow& r = instances[i];
    os << "    {\"instance\": \"" << r.name << "\", \"isa\": \"" << r.isa
       << "\", \"family\": \"" << r.family << "\", \"geometry\": \""
       << r.geometry << "\", \"ns_per_mac\": " << r.ns_per_mac
       << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar
       << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false") << "}"
       << (i + 1 < instances.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// ---------------------------------------------------------------------------
// --trace-gate: the DECIMATE_TRACE overhead budget, enforced by exit code.
// Runs the smoke ResNet18 workload through the host single-image path with
// recording runtime-disabled, then runtime-enabled, interleaving the reps so
// both modes see the same thermal/scheduler environment, and compares the
// best-of wall times. The traced run must stay within 5% of the untraced
// one. Untraced builds (DECIMATE_TRACE=OFF) pass vacuously: TraceScope is
// an empty type there, so there is no overhead to bound.
// ---------------------------------------------------------------------------

int run_trace_gate() {
#if !DECIMATE_TRACE_ENABLED
  std::cout << "trace-gate: tracing compiled out (DECIMATE_TRACE=OFF); "
               "nothing to measure, PASS\n";
  return 0;
#else
  constexpr int kHw = 16;
  Resnet18Options mopt;
  mopt.sparsity_m = 4;
  mopt.input_hw = kHw;
  const Graph graph = build_resnet18(mopt);
  Rng rng(23);
  const Tensor8 input = Tensor8::random({kHw, kHw, 4}, rng);

  const auto cache = std::make_shared<TileLatencyCache>();
  Compiler compiler(CompileOptions{}, cache);
  const CompiledPlan plan = compiler.compile(graph);
  ExecutionEngine engine;
  engine.run(plan, input);  // warm-up: page in weights, size the pool

  // interleaved best-of: rep r times one untraced then one traced run, so
  // slow-rep noise (a CI neighbor stealing the core) hits both modes alike
  constexpr int kReps = 7;
  double off_best = 1e300, on_best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    trace::set_enabled(false);
    off_best = std::min(off_best, time_best_s(1, [&] {
      engine.run(plan, input);
    }));
    trace::set_enabled(true);
    on_best = std::min(on_best, time_best_s(1, [&] {
      engine.run(plan, input);
    }));
  }
  trace::set_enabled(true);

  const double ratio = off_best > 0 ? on_best / off_best : 1.0;
  const size_t events = trace::event_count();
  std::cout << "trace-gate: untraced " << off_best * 1e3 << " ms, traced "
            << on_best * 1e3 << " ms, ratio " << ratio << " ("
            << events << " events recorded)\n";
  if (ratio > 1.05) {
    std::cerr << "FAIL: tracing overhead " << (ratio - 1.0) * 100.0
              << "% exceeds the 5% budget\n";
    return 1;
  }
  std::cout << "trace-gate: PASS (<= 5% overhead)\n";
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  std::string out_path = "BENCH_host.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
      cfg.batch = 4;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-gate") == 0) {
      return run_trace_gate();
    } else {
      std::cerr << "usage: bench_host_throughput [--smoke] [--out PATH] "
                   "[--trace-gate]\n";
      return 1;
    }
  }

  const BuildInfo build;
  std::cout << "build " << build.build_type << ", " << build.compiler
            << ", isa " << build.isa << ", " << build.threads
            << " hardware threads\n";
  const auto cache = std::make_shared<TileLatencyCache>();
  std::vector<Row> rows;

  const int hw = cfg.smoke ? 16 : 32;
  for (const int m : {0, 4, 8, 16}) {
    Resnet18Options mopt;
    mopt.sparsity_m = m;
    mopt.input_hw = hw;
    bench_workload("resnet18", build_resnet18(mopt), {hw, hw, 4}, m, cfg,
                   cache, rows);
  }

  const int tokens = cfg.smoke ? 96 : 196;
  const int d = cfg.smoke ? 128 : 384;
  const int hidden = cfg.smoke ? 512 : 1536;
  for (const int m : {0, 4, 8, 16}) {
    bench_workload("vit_ffn", build_ffn_block(tokens, d, hidden, m, 11),
                   {tokens, d}, m, cfg, cache, rows);
  }

  const std::vector<InstanceRow> instances = bench_instances(cfg);

  // exit-code gates. With SIMD instances live the full-run targets are
  // >= 4.5x sparse M=4 ResNet18 and >= 2x dense ResNet18 (conv-
  // dominated); a scalar-only host keeps the pre-SIMD gates (2.5x / 1x).
  // --smoke pads them for shared-CI noise — tiny models on noisy runners
  // can swing ratios ~15% — while the JSON records the measured values.
  const bool simd = host_isa_detected() != HostIsa::kScalar;
  const double sparse_gate = simd ? (cfg.smoke ? 3.0 : 4.5)
                                  : (cfg.smoke ? 2.0 : 2.5);
  const double dense_gate = simd ? (cfg.smoke ? 1.2 : 2.0)
                                 : (cfg.smoke ? 0.85 : 1.0);
  Table t({"model", "m", "mode", "ms/img", "img/s", "ns/MAC", "vs ref",
           "bit-exact"});
  bool all_exact = true;
  double resnet_m4_host_speedup = 0.0;
  double resnet_dense_host_speedup = 0.0;
  for (const Row& r : rows) {
    all_exact = all_exact && r.bit_exact;
    if (r.model == "resnet18" && r.m == 4 && r.mode == "host") {
      resnet_m4_host_speedup = r.speedup_vs_ref;
    }
    if (r.model == "resnet18" && r.m == 0 && r.mode == "host") {
      resnet_dense_host_speedup = r.speedup_vs_ref;
    }
    t.add_row({r.model, std::to_string(r.m), r.mode,
               Table::num(r.ms_per_img, 2), Table::num(r.img_per_s, 1),
               Table::num(r.ns_per_mac, 3),
               Table::num(r.speedup_vs_ref, 2) + "x",
               r.bit_exact ? "yes" : "NO"});
  }
  std::cout << t;

  Table ti({"instance", "isa", "family", "ns/MAC", "vs scalar", "bit-exact"});
  for (const InstanceRow& r : instances) {
    all_exact = all_exact && r.bit_exact;
    ti.add_row({r.name, r.isa, r.family, Table::num(r.ns_per_mac, 3),
                Table::num(r.speedup_vs_scalar, 2) + "x",
                r.bit_exact ? "yes" : "NO"});
  }
  std::cout << "\n" << ti;

  if (!all_exact) {
    std::cerr << "FAIL: a host-kernel output differs from the reference\n";
    return 1;
  }
  if (resnet_m4_host_speedup < sparse_gate) {
    std::cerr << "FAIL: sparse M=4 ResNet18 host speedup "
              << resnet_m4_host_speedup << "x < " << sparse_gate
              << "x gate\n";
    return 1;
  }
  if (resnet_dense_host_speedup < dense_gate) {
    std::cerr << "FAIL: dense ResNet18 host speedup "
              << resnet_dense_host_speedup << "x < " << dense_gate
              << "x gate\n";
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  emit_json(out, cfg.smoke, build, rows, instances);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
