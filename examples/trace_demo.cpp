// Observability demo: a mixed ResNet18 + ViT-FFN request stream served
// through the full runtime stack (serve_trace -> Batcher -> Dispatcher ->
// engines) with span tracing and the metrics registry live, then three
// artifacts written from the same run:
//
//   trace.json    Chrome trace-event JSON — open in https://ui.perfetto.dev
//                 (or chrome://tracing) to see the serve loop, per-kernel
//                 spans, pool workers, and request flow arrows
//   metrics.json  the metrics registry snapshot: counters, gauges, and
//                 latency histogram percentiles
//   stdout        per-request and per-layer energy attribution from the
//                 hw energy model folded over each plan's cycle reports
//
// The run ends with a registry cold start: the warm plans are published
// to trace_registry/ and reloaded through a fresh PlanStore, so the
// trace also shows the artifact path (registry.load / registry.mmap /
// registry.verify spans, artifact.* counters in metrics.json).
//
// Span recording requires a -DDECIMATE_TRACE=ON build; without it the
// demo still serves, writes metrics.json, and prints the energy tables,
// but trace.json is skipped (TraceScope compiles to nothing).
//
//   ./examples/trace_demo

#include <iostream>
#include <set>

#include "common/table.hpp"
#include "models/models.hpp"
#include "serve/dispatcher.hpp"
#include "trace/energy_attr.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

using namespace decimate;

namespace {

/// Interleaved two-model trace: even ids ResNet18, odd ids ViT-FFN,
/// arriving every `gap` cycles.
std::vector<Request> mixed_trace(int resnet, const std::vector<int>& rshape,
                                 int ffn, const std::vector<int>& fshape,
                                 int n, uint64_t gap) {
  Rng rng(7);
  std::vector<Request> trace;
  for (int i = 0; i < n; ++i) {
    const bool even = i % 2 == 0;
    trace.push_back(Request{static_cast<uint64_t>(i),
                            even ? resnet : ffn,
                            static_cast<uint64_t>(i) * gap,
                            Tensor8::random(even ? rshape : fshape, rng)});
  }
  return trace;
}

}  // namespace

int main() {
  trace::set_thread_name("main");

  CompileOptions opt;
  opt.enable_isa = true;
  PlanStore store(opt);

  Resnet18Options mopt;
  mopt.sparsity_m = 8;
  mopt.input_hw = 16;
  const Graph resnet_graph = build_resnet18(mopt);
  const Graph ffn_graph = build_ffn_block(32, 64, 128, 8, 11);
  const int resnet = store.add_model(resnet_graph);
  const int ffn = store.add_model(ffn_graph);

  DispatchConfig cfg;
  cfg.num_clusters = 4;
  cfg.fused_batches = {1, 2, 4};
  Dispatcher dispatcher(store, cfg);
  std::cout << "warming the plan store...\n";
  dispatcher.warm(resnet);
  dispatcher.warm(ffn);
  const uint64_t total1 = store.plan(resnet, 1, 1).total_cycles;

  // the warm-up compiles traced above are setup, not serving — drop them
  // so trace.json shows only the request lifecycle
  trace::clear();

  SloConfig slo;
  slo.max_wait_cycles = total1 / 2;
  slo.deadline_cycles = 2 * total1;
  slo.max_batch = 4;

  const std::vector<Served> served = serve_trace(
      dispatcher, slo,
      mixed_trace(resnet, resnet_graph.node(0).out_shape, ffn,
                  ffn_graph.node(0).out_shape, 12, total1 / 3));
  // a batch dispatches no earlier than its predecessor finishes, so each
  // batch has its own dispatch cycle
  std::set<uint64_t> batch_starts;
  for (const Served& s : served) batch_starts.insert(s.stats.dispatch_cycles);
  std::cout << "served " << served.size() << " requests in "
            << batch_starts.size() << " batches\n\n";

  // --- energy attribution: J/request and J/layer -------------------------
  const trace::EnergyAttribution ea =
      trace::attribute_energy(served, store, cfg.num_clusters);

  Table per_req({"req", "model", "mode", "uJ"});
  for (size_t i = 0; i < served.size(); ++i) {
    per_req.add_row({std::to_string(ea.requests[i].id),
                     served[i].stats.model == resnet ? "resnet18" : "vit_ffn",
                     to_string(served[i].stats.mode),
                     Table::num(ea.requests[i].nj * 1e-3, 3)});
  }
  std::cout << "energy per request (" << Table::num(ea.total_nj * 1e-6, 3)
            << " mJ total, " << Table::num(ea.mean_nj_per_request() * 1e-3, 3)
            << " uJ/request mean):\n" << per_req << "\n";

  Table per_layer({"layer", "impl", "invocations", "Mcycles", "uJ"});
  for (const trace::LayerEnergy& l : ea.layers) {
    per_layer.add_row({l.name, l.impl, std::to_string(l.invocations),
                       Table::num(static_cast<double>(l.cycles) / 1e6, 3),
                       Table::num(l.nj * 1e-3, 3)});
  }
  std::cout << "energy per layer (first-execution order):\n"
            << per_layer << "\n";

  // --- registry cold start: the artifact path, traced --------------------
  // publish the warm plans, then reload one through a fresh store so the
  // exported trace shows registry.load/mmap/verify alongside the serving
  // spans (and metrics.json the artifact.* counters)
  store.attach_registry("trace_registry")->publish(store.plan(resnet, 1, 1));
  {
    PlanStore cold(opt);
    cold.attach_registry("trace_registry");
    const int id = cold.add_model(resnet_graph);
    cold.plan(id, 1, 1);
    std::cout << "registry cold start: " << cold.registry_loads()
              << " plan loaded from trace_registry/, " << cold.compiles()
              << " compiles\n\n";
  }

  // --- artifacts ---------------------------------------------------------
  if (metrics::registry().save_json("metrics.json")) {
    std::cout << "wrote metrics.json (metrics registry snapshot)\n";
  } else {
    std::cerr << "cannot write metrics.json\n";
    return 1;
  }
#if DECIMATE_TRACE_ENABLED
  if (trace::export_chrome("trace.json")) {
    std::cout << "wrote trace.json (" << trace::event_count()
              << " events) — open in https://ui.perfetto.dev\n";
  } else {
    std::cerr << "cannot write trace.json\n";
    return 1;
  }
#else
  std::cout << "trace.json skipped: build with -DDECIMATE_TRACE=ON to "
               "record spans\n";
#endif
  return 0;
}
