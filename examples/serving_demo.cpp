// Serving demo: the same deterministic request trace served under a
// tight and a loose latency SLO. The PlanStore pre-compiles every
// (batch x cluster) plan variant once; serve_trace feeds the single-image
// requests to the Batcher, which forms batches on the modeled-cycle
// timeline; and the Dispatcher picks — per batch — between batch-fused
// execution, sharding each image across the clusters, and data-parallel
// placement.
// Watch the chosen mode flip from sharded (tight SLO: lowest latency) to
// batch-fused (loose SLO: fewest cycles per image).
//
//   ./examples/serving_demo

#include <iostream>

#include "common/table.hpp"
#include "models/models.hpp"
#include "serve/dispatcher.hpp"

using namespace decimate;

namespace {

std::vector<Request> make_trace(int model, const std::vector<int>& shape,
                                int n, uint64_t gap) {
  Rng rng(7);
  std::vector<Request> trace;
  for (int i = 0; i < n; ++i) {
    trace.push_back(Request{static_cast<uint64_t>(i), model,
                            static_cast<uint64_t>(i) * gap,
                            Tensor8::random(shape, rng)});
  }
  return trace;
}

void serve_and_print(const char* label, Dispatcher& dispatcher,
                     const SloConfig& slo, std::vector<Request> trace) {
  const std::vector<Served> served =
      serve_trace(dispatcher, slo, std::move(trace));

  std::cout << label << " (deadline " << slo.deadline_cycles
            << " cyc, max wait " << slo.max_wait_cycles << " cyc, max batch "
            << slo.max_batch << ")\n";
  Table t({"req", "mode", "group", "wait kcyc", "exec kcyc", "latency kcyc",
           "SLO"});
  for (const Served& s : served) {
    t.add_row({std::to_string(s.stats.id), to_string(s.stats.mode),
               std::to_string(s.stats.group_size),
               Table::num(static_cast<double>(s.stats.queue_wait_cycles()) /
                          1e3, 1),
               Table::num(static_cast<double>(s.stats.exec_cycles()) / 1e3,
                          1),
               Table::num(static_cast<double>(s.stats.latency_cycles()) /
                          1e3, 1),
               s.stats.deadline_hit ? "hit" : "MISS"});
  }
  std::cout << t << "\n";
}

}  // namespace

int main() {
  CompileOptions opt;
  opt.enable_isa = true;
  PlanStore store(opt);

  Resnet18Options mopt;
  mopt.sparsity_m = 8;
  mopt.input_hw = 16;
  const Graph resnet = build_resnet18(mopt);
  const int model = store.add_model(resnet);

  DispatchConfig cfg;
  cfg.num_clusters = 4;
  cfg.fused_batches = {1, 2, 4};
  Dispatcher dispatcher(store, cfg);
  std::cout << "warming the plan store (compile once per batch x cluster "
               "variant)...\n";
  dispatcher.warm(model);
  const uint64_t total1 = store.plan(model, 1, 1).total_cycles;
  std::cout << "single-image single-cluster latency: " << total1
            << " cycles; " << store.compiles() << " plans compiled\n\n";

  const auto trace =
      make_trace(model, resnet.node(0).out_shape, 8, total1 / 2);

  SloConfig tight;
  tight.max_wait_cycles = total1 / 10;
  tight.deadline_cycles = 3 * total1 / 4;
  tight.max_batch = 4;
  serve_and_print("tight SLO", dispatcher, tight, trace);

  SloConfig loose;
  loose.max_wait_cycles = 4 * total1;
  loose.deadline_cycles = 100 * total1;
  loose.max_batch = 4;
  serve_and_print("loose SLO", dispatcher, loose, trace);

  std::cout << "plans compiled after serving both SLOs: " << store.compiles()
            << " (unchanged — the store never recompiles)\n";
  return 0;
}
