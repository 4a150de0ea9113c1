// Serving-runtime tests: SLO-aware batch formation on the virtual cycle
// timeline (straggler deadline flush, full-batch flush, drain, rejection
// of a trace whose arrivals decrease), the
// Dispatcher's mode selection boundaries (loose SLO -> batch-fused, tight
// SLO -> sharded single-image, mid SLO over a deep burst ->
// data-parallel) with stats that report exactly the modeled placement
// while the host runs fused chunks, oversize batches splitting into fused
// chunks, mixed ResNet18/ViT-FFN request streams keyed to different plans,
// PlanStore compile-once behavior, no graph hashing on any dispatch after
// warm-up (serve_trace and WallClockServer), run_batch refusing a span
// its fused plan was not compiled for, and — everywhere — bit-exactness
// of every served output against a sequential ExecutionEngine::run.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "compiler/fingerprint.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "serve/dispatcher.hpp"
#include "serve/wallclock.hpp"
#include "trace/metrics.hpp"

namespace decimate {
namespace {

CompileOptions isa_options() {
  CompileOptions opt;
  opt.enable_isa = true;
  return opt;
}

Graph scaled_resnet18() {
  Resnet18Options opt;
  opt.sparsity_m = 8;
  opt.input_hw = 16;
  return build_resnet18(opt);
}

Graph small_ffn() { return build_ffn_block(32, 64, 128, 8, 11); }

std::vector<int> input_shape(const Graph& g) { return g.node(0).out_shape; }

/// One latency cache for the whole binary: tile geometries repeat across
/// tests, so every unique tile is ISS-measured once per test run.
std::shared_ptr<TileLatencyCache> shared_test_cache() {
  static auto cache = std::make_shared<TileLatencyCache>();
  return cache;
}

/// Serving fixture: one PlanStore + Dispatcher shared per test.
struct Harness {
  explicit Harness(int num_clusters, std::vector<int> fused = {1, 2, 4})
      : store(isa_options(), shared_test_cache()),
        dispatcher(store, DispatchConfig{num_clusters, std::move(fused)}) {}

  int add(const Graph& g) {
    const int id = store.add_model(g);
    dispatcher.warm(id);
    return id;
  }

  std::vector<Served> serve(const SloConfig& slo, std::vector<Request> trace) {
    return serve_trace(dispatcher, slo, std::move(trace));
  }

  /// Every served output must match a sequential single-cluster run of
  /// the registered graph on the same input.
  void expect_bit_exact(const std::vector<Served>& served,
                        const std::vector<Request>& trace) {
    ExecutionEngine engine;
    std::map<uint64_t, const Request*> by_id;
    for (const Request& r : trace) by_id[r.id] = &r;
    ASSERT_EQ(served.size(), trace.size());
    for (const Served& s : served) {
      ASSERT_TRUE(by_id.count(s.stats.id)) << "unknown id " << s.stats.id;
      const Request& r = *by_id[s.stats.id];
      const NetworkRun ref =
          engine.run(store.plan(r.model, 1, 1), r.input);
      EXPECT_TRUE(s.output == ref.output)
          << "served output of request " << s.stats.id
          << " differs from sequential run (mode "
          << to_string(s.stats.mode) << ")";
    }
  }

  /// The stats describe the modeled placement, not the host execution:
  /// each request's mode, group size and completion cycles must be
  /// exactly what evaluate() modeled for the mode choose() picks for its
  /// batch (the requests of one model dispatched at one cycle, in id
  /// order).
  void expect_modeled_placement(const std::vector<Served>& served,
                                const SloConfig& slo) {
    std::map<std::pair<uint64_t, int>, std::vector<const ServedStats*>>
        batches;
    for (const Served& s : served) {
      batches[{s.stats.dispatch_cycles, s.stats.model}].push_back(&s.stats);
    }
    for (auto& [key, members] : batches) {
      std::sort(members.begin(), members.end(),
                [](const ServedStats* a, const ServedStats* b) {
                  return a->id < b->id;
                });
      std::vector<uint64_t> arrivals;
      for (const ServedStats* s : members) {
        arrivals.push_back(s->arrival_cycles);
      }
      const auto evals = dispatcher.evaluate(
          key.second, static_cast<int>(members.size()), arrivals, key.first,
          slo);
      const ModeEval& pick = evals[Dispatcher::choose(evals)];
      for (size_t i = 0; i < members.size(); ++i) {
        EXPECT_EQ(members[i]->mode, pick.mode) << "request " << members[i]->id;
        EXPECT_EQ(members[i]->group_size, pick.group_size[i])
            << "request " << members[i]->id;
        EXPECT_EQ(members[i]->completion_cycles, pick.completion_cycles[i])
            << "request " << members[i]->id;
      }
    }
  }

  PlanStore store;
  Dispatcher dispatcher;
};

std::vector<Request> burst(int model, const std::vector<int>& shape, int n,
                           uint64_t arrival, uint64_t seed,
                           uint64_t first_id = 0) {
  Rng rng(seed);
  std::vector<Request> trace;
  for (int i = 0; i < n; ++i) {
    trace.push_back(Request{first_id + static_cast<uint64_t>(i), model,
                            arrival, Tensor8::random(shape, rng)});
  }
  return trace;
}

// --- queue / batcher edge cases ---------------------------------------------

TEST(Serve, EmptyQueueDrainReturnsNothing) {
  Harness h(1);
  const Graph g = small_ffn();
  h.add(g);
  EXPECT_TRUE(h.serve(SloConfig{100, 1000, 4}, {}).empty());
}

TEST(Serve, DecreasingArrivalsAreRejected) {
  Harness h(1);
  const Graph g = small_ffn();
  const int m = h.add(g);
  // max_batch 1: the first request is served before the second is seen,
  // so the check must span batches, not only the forming one
  std::vector<Request> trace = burst(m, input_shape(g), 1, 500, 69);
  auto earlier = burst(m, input_shape(g), 1, 499, 70, 1);
  trace.push_back(std::move(earlier[0]));
  EXPECT_THROW(h.serve(SloConfig{0, UINT64_MAX, 1}, std::move(trace)), Error);
}

TEST(Serve, StragglerIsFlushedAtTheSloDeadline) {
  Harness h(1);
  const Graph g = small_ffn();
  const int m = h.add(g);
  const uint64_t total = h.store.plan(m, 1, 1).total_cycles;
  const uint64_t max_wait = total / 2 + 1;

  SloConfig slo;
  slo.max_wait_cycles = max_wait;
  slo.deadline_cycles = 100 * total;
  slo.max_batch = 4;

  // the straggler at 0 can never fill a batch: the only other request
  // arrives far beyond its flush deadline
  std::vector<Request> trace = burst(m, input_shape(g), 1, 0, 51);
  const uint64_t late = max_wait + 20 * total;
  auto tail = burst(m, input_shape(g), 1, late, 52, 1);
  trace.push_back(std::move(tail[0]));

  const auto served = h.serve(slo, trace);
  ASSERT_EQ(served.size(), 2u);
  const ServedStats& straggler = served[0].stats;
  EXPECT_EQ(straggler.id, 0u);
  EXPECT_EQ(straggler.dispatch_cycles, max_wait)
      << "a partial batch must flush exactly when the oldest request has "
         "waited max_wait_cycles";
  EXPECT_EQ(straggler.queue_wait_cycles(), max_wait);
  // the late request finds an idle engine and an exhausted trace: no wait
  EXPECT_EQ(served[1].stats.dispatch_cycles, late);
  EXPECT_EQ(served[1].stats.queue_wait_cycles(), 0u);
  h.expect_bit_exact(served, trace);
}

TEST(Serve, FullBatchDispatchesWithoutWaitingForTheDeadline) {
  Harness h(1);
  const Graph g = small_ffn();
  const int m = h.add(g);
  SloConfig slo;
  slo.max_wait_cycles = 1'000'000'000;  // deadline flush would be absurd
  slo.deadline_cycles = UINT64_MAX;
  slo.max_batch = 4;

  const auto trace = burst(m, input_shape(g), 4, 123, 53);
  const auto served = h.serve(slo, trace);
  ASSERT_EQ(served.size(), 4u);
  for (const Served& s : served) {
    EXPECT_EQ(s.stats.dispatch_cycles, 123u)
        << "a full batch dispatches at the last member's arrival";
  }
  h.expect_bit_exact(served, trace);
}

TEST(Serve, BatchLargerThanAnyFusedPlanFallsBackToSplitting) {
  Harness h(1, {1, 2, 4});  // no fused plan larger than 4
  // conv-dominated: batch fusion's weight-DMA amortization makes fused
  // chunks the cheapest mode (on the tiny FFN the fused tile schedule is
  // a wash and the dispatcher rightly prefers the serial pipeline)
  const Graph g = scaled_resnet18();
  const int m = h.add(g);
  SloConfig slo;
  slo.max_wait_cycles = 0;
  slo.deadline_cycles = UINT64_MAX;  // loose: fused mode wins
  slo.max_batch = 8;

  const auto trace = burst(m, input_shape(g), 8, 0, 54);
  const auto served = h.serve(slo, trace);
  ASSERT_EQ(served.size(), 8u);
  for (const Served& s : served) {
    EXPECT_EQ(s.stats.mode, ServeMode::kBatchFused);
    EXPECT_EQ(s.stats.group_size, 4)
        << "an 8-request batch must split into two fused-4 chunks";
  }
  // the second chunk completes after the first
  uint64_t first = 0, last = 0;
  for (const Served& s : served) {
    if (s.stats.id < 4) first = s.stats.completion_cycles;
    else last = s.stats.completion_cycles;
  }
  EXPECT_LT(first, last);
  h.expect_bit_exact(served, trace);
}

TEST(Serve, MixedModelStreamsFormPerModelBatches) {
  Harness h(2);
  const Graph resnet = scaled_resnet18();
  const Graph ffn = small_ffn();
  const int mr = h.add(resnet);
  const int mf = h.add(ffn);
  ASSERT_NE(mr, mf);

  SloConfig slo;
  slo.max_wait_cycles = 10'000'000;
  slo.deadline_cycles = UINT64_MAX;
  slo.max_batch = 2;

  // interleave the two models at the same arrival cycles
  std::vector<Request> trace;
  Rng rng(55);
  for (int i = 0; i < 4; ++i) {
    const int model = i % 2 == 0 ? mr : mf;
    const Graph& g = i % 2 == 0 ? resnet : ffn;
    trace.push_back(Request{static_cast<uint64_t>(i), model,
                            static_cast<uint64_t>(i),
                            Tensor8::random(input_shape(g), rng)});
  }
  const auto served = h.serve(slo, trace);
  ASSERT_EQ(served.size(), 4u);
  for (const Served& s : served) {
    EXPECT_EQ(s.stats.group_size, 2)
        << "each model's pair must batch together, never across models";
  }
  h.expect_bit_exact(served, trace);
}

// --- mode selection ----------------------------------------------------------

TEST(Serve, TightSloPicksShardedSingleImageExecution) {
  Harness h(4);
  const Graph g = scaled_resnet18();
  const int m = h.add(g);
  const uint64_t total = h.store.plan(m, 1, 1).total_cycles;

  // the shard critical path (4 clusters) is well below the single-cluster
  // total; a deadline between the two is only feasible sharded
  const auto probe = h.dispatcher.evaluate(
      m, 1, {0}, 0, SloConfig{0, UINT64_MAX, 1});
  const uint64_t critical = probe[1].completion_cycles[0];
  ASSERT_LT(critical, total);
  SloConfig slo;
  slo.max_wait_cycles = 0;
  slo.deadline_cycles = (critical + total) / 2;
  slo.max_batch = 1;

  // two far-apart singles, so each finds an idle engine and the deadline
  // constrains pure execution latency
  std::vector<Request> trace = burst(m, input_shape(g), 1, 0, 57);
  auto second = burst(m, input_shape(g), 1, 10 * total, 62, 1);
  trace.push_back(std::move(second[0]));
  const auto served = h.serve(slo, trace);
  ASSERT_EQ(served.size(), 2u);
  for (const Served& s : served) {
    EXPECT_EQ(s.stats.mode, ServeMode::kShardedSingle);
    EXPECT_TRUE(s.stats.deadline_hit);
    EXPECT_LT(s.stats.exec_cycles(), total)
        << "sharded execution must beat the batch=1 single-cluster latency";
  }
  h.expect_modeled_placement(served, slo);
  h.expect_bit_exact(served, trace);
}

TEST(Serve, LooseSloPicksBatchFusedPlans) {
  Harness h(4);
  const Graph g = scaled_resnet18();
  const int m = h.add(g);
  SloConfig slo;
  slo.max_wait_cycles = 0;
  slo.deadline_cycles = UINT64_MAX;
  slo.max_batch = 4;

  const auto trace = burst(m, input_shape(g), 4, 0, 58);
  const auto served = h.serve(slo, trace);
  ASSERT_EQ(served.size(), 4u);
  for (const Served& s : served) {
    EXPECT_EQ(s.stats.mode, ServeMode::kBatchFused);
    EXPECT_EQ(s.stats.group_size, 4);
  }
  // fused serving must consume fewer cycles than four serial images
  const uint64_t total = h.store.plan(m, 1, 1).total_cycles;
  EXPECT_LT(served[0].stats.exec_cycles(), 4 * total);
  h.expect_modeled_placement(served, slo);
  h.expect_bit_exact(served, trace);
}

TEST(Serve, MidSloOverADeepBurstPicksDataParallel) {
  Harness h(4);
  const Graph g = scaled_resnet18();
  const int m = h.add(g);

  // score the modes for an 8-burst to find a deadline that data-parallel
  // meets but fused misses
  const std::vector<uint64_t> arrivals(8, 0);
  const auto evals = h.dispatcher.evaluate(
      m, 8, arrivals, 0, SloConfig{0, UINT64_MAX, 8});
  const uint64_t fused_makespan = evals[0].makespan_cycles;
  const uint64_t dp_makespan = evals[2].makespan_cycles;
  ASSERT_LT(dp_makespan, fused_makespan)
      << "4 clusters must finish a deep burst before one fused cluster";
  // fused is the cheapest mode in consumed cycles, data-parallel cheaper
  // than sharding every image
  EXPECT_LT(evals[0].cost_cycles, evals[2].cost_cycles);
  EXPECT_LT(evals[2].cost_cycles, evals[1].cost_cycles);

  SloConfig slo;
  slo.max_wait_cycles = 0;
  slo.deadline_cycles = (dp_makespan + fused_makespan) / 2;
  slo.max_batch = 8;
  const auto trace = burst(m, input_shape(g), 8, 0, 59);
  const auto served = h.serve(slo, trace);
  ASSERT_EQ(served.size(), 8u);
  for (const Served& s : served) {
    EXPECT_EQ(s.stats.mode, ServeMode::kDataParallel);
    EXPECT_TRUE(s.stats.deadline_hit);
  }
  h.expect_modeled_placement(served, slo);
  h.expect_bit_exact(served, trace);
}

// --- plan store --------------------------------------------------------------

TEST(Serve, PlanStoreCompilesEachConfigOnceAcrossTraffic) {
  Harness h(2);
  const Graph g = small_ffn();
  const int m = h.add(g);
  const int warmed = h.store.compiles();
  EXPECT_GT(warmed, 0);

  SloConfig slo;
  slo.max_wait_cycles = 1000;
  slo.deadline_cycles = UINT64_MAX;
  slo.max_batch = 4;
  const auto trace = burst(m, input_shape(g), 8, 0, 60);
  const auto first = h.serve(slo, trace);
  EXPECT_EQ(h.store.compiles(), warmed)
      << "serving after warm-up must never compile";
  const auto second = h.serve(slo, trace);
  EXPECT_EQ(h.store.compiles(), warmed);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].output == second[i].output)
        << "identical traces must serve identical outputs";
  }
}

TEST(Serve, DispatchAfterWarmHashesNoGraph) {
  // graph_fingerprint is a pass over every weight byte; after warm() the
  // dispatcher reads its cost table, so no dispatch may call it — on the
  // modeled timeline or on the wall-clock server. warm() itself only
  // reads plans and plans the shard schedule: with every plan already in
  // the store it hashes nothing either.
  auto& scans = metrics::registry().counter("compiler.graph_fingerprints");
  const auto precompile = [](PlanStore& store, int model,
                             const DispatchConfig& cfg) {
    for (const int b : cfg.fused_batches) store.plan(model, b, 1);
    store.plan(model, 1, cfg.num_clusters);
  };
  {
    Harness h(4);
    const Graph g = scaled_resnet18();
    const int m = h.store.add_model(g);
    precompile(h.store, m, h.dispatcher.config());
    const uint64_t before_warm = scans.value();
    h.dispatcher.warm(m);
    EXPECT_EQ(scans.value(), before_warm);
    SloConfig slo;
    slo.max_wait_cycles = 0;
    slo.deadline_cycles = UINT64_MAX;
    slo.max_batch = 2;
    const auto trace = burst(m, input_shape(g), 5, 0, 72);
    const uint64_t before = scans.value();
    const auto served = h.serve(slo, trace);
    EXPECT_EQ(scans.value(), before);
    std::set<uint64_t> dispatches;
    for (const Served& s : served) dispatches.insert(s.stats.dispatch_cycles);
    EXPECT_GE(dispatches.size(), 3u) << "the trace must span several batches";
    h.expect_bit_exact(served, trace);
  }
  {
    PlanStore store(isa_options(), shared_test_cache());
    const Graph g = small_ffn();
    const int m = store.add_model(g);
    WallClockConfig cfg;
    cfg.max_batch = 2;
    cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
    const DispatchConfig dcfg{4, {1, 2}};
    WallClockServer server(store, dcfg, cfg);
    precompile(store, m, dcfg);
    const uint64_t before_warm = scans.value();
    server.warm(m);
    EXPECT_EQ(scans.value(), before_warm);
    const uint64_t before = scans.value();
    Rng rng(73);
    for (uint64_t id = 0; id < 4; ++id) {
      WallRequest r;
      r.id = id;
      r.model = m;
      r.deadline_ns = 20'000'000'000;  // 20 s: never binds
      r.input = Tensor8::random(input_shape(g), rng);
      server.submit(std::move(r));
    }
    server.close();
    const auto done = server.serve();
    EXPECT_EQ(scans.value(), before);
    ASSERT_EQ(done.size(), 4u);
    for (const WallServed& w : done) {
      EXPECT_EQ(w.outcome, ServeOutcome::kOk) << w.detail;
    }
  }
}

TEST(Serve, PlanStoreDeduplicatesModelsByContent) {
  PlanStore store(isa_options());
  const Graph a = small_ffn();
  const Graph twin = small_ffn();
  const int ma = store.add_model(a);
  EXPECT_EQ(store.add_model(twin), ma)
      << "identical content must map to one model id";
  EXPECT_EQ(store.model_count(), 1);

  const Graph other = scaled_resnet18();
  EXPECT_NE(store.add_model(other), ma);
  EXPECT_EQ(store.model_count(), 2);

  // the store owns its graphs: plans reference the stable copy, never a
  // caller's object, so registering (and destroying) re-created graphs
  // while plans are in use is safe
  const CompiledPlan& plan = store.plan(ma, 1, 1);
  EXPECT_EQ(store.compiles(), 1);
  EXPECT_EQ(plan.graph, &store.graph(ma));
  {
    const Graph recreated = small_ffn();
    EXPECT_EQ(store.add_model(recreated), ma);
  }  // recreated destroyed here
  EXPECT_EQ(plan.graph, &store.graph(ma));
  EXPECT_EQ(&store.plan(ma, 1, 1), &plan);
  EXPECT_EQ(store.compiles(), 1);
  // the plan still executes after every caller-side graph is gone
  ExecutionEngine engine;
  Rng rng(66);
  const Tensor8 x = Tensor8::random({32, 64}, rng);
  EXPECT_EQ(engine.run(plan, x).output.shape(),
            (std::vector<int>{32, 64}));
}

TEST(Serve, PlanFingerprintFromMatchesPlanFingerprint) {
  const Graph g = small_ffn();
  CompileOptions opt = isa_options();
  opt.batch = 4;
  opt.num_clusters = 2;
  EXPECT_EQ(plan_fingerprint_from(graph_fingerprint(g), opt),
            plan_fingerprint(g, opt));
}

// --- fused-batch size check --------------------------------------------------

TEST(Serve, RunBatchRefusesASpanOfAnotherSize) {
  // a plan fused for 4 images serves exactly 4: any other span would
  // stamp a mismatched cycle report, so run_batch refuses it
  const Graph g = small_ffn();
  CompileOptions opt = isa_options();
  opt.batch = 4;
  Compiler compiler(opt);
  const CompiledPlan plan = compiler.compile(g);
  ExecutionEngine engine;
  Rng rng(61);
  std::vector<Tensor8> three;
  for (int i = 0; i < 3; ++i) {
    three.push_back(Tensor8::random(input_shape(g), rng));
  }
  EXPECT_THROW(engine.run_batch(plan, three), Error);
  three.push_back(Tensor8::random(input_shape(g), rng));
  EXPECT_EQ(engine.run_batch(plan, three).batch_size(), 4);
}

// --- batcher unit behavior ---------------------------------------------------

TEST(Serve, BatcherIsUndecidableWhileTheNextArrivalMayJoin) {
  Batcher batcher(SloConfig{100, UINT64_MAX, 4});
  EXPECT_FALSE(batcher.try_form(0, std::nullopt).has_value());

  Rng rng(62);
  batcher.admit(Request{0, 0, 10, Tensor8::random({1, 4}, rng)});
  // a next arrival inside the admission window: admit it first
  EXPECT_FALSE(batcher.try_form(0, 50).has_value());
  // a next arrival beyond the window: deadline flush at arrival + wait
  const auto flushed = batcher.try_form(0, 500);
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->reason, FlushReason::kDeadline);
  EXPECT_EQ(flushed->dispatch_cycles, 110u);
  EXPECT_EQ(flushed->requests.size(), 1u);
  EXPECT_FALSE(batcher.has_pending());
}

TEST(Serve, FullBatchIsNotBlockedByAnOlderFormingBatch) {
  // model 7 has an older, still-undecidable straggler; model 9 fills a
  // whole batch — the full batch must flush immediately, not wait behind
  // model 7's deadline
  Batcher batcher(SloConfig{1'000'000, UINT64_MAX, 4});
  Rng rng(64);
  batcher.admit(Request{0, 7, 0, Tensor8::random({1, 4}, rng)});
  for (uint64_t i = 0; i < 4; ++i) {
    batcher.admit(Request{1 + i, 9, 10 + i, Tensor8::random({1, 4}, rng)});
  }
  // the next arrival (20) lies inside model 7's admission window
  const auto full = batcher.try_form(0, 20);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->model, 9);
  EXPECT_EQ(full->reason, FlushReason::kFull);
  EXPECT_EQ(full->requests.size(), 4u);
  EXPECT_EQ(full->dispatch_cycles, 13u);
  // the straggler is still pending and still waits for that arrival
  EXPECT_EQ(batcher.pending(), 1u);
  EXPECT_FALSE(batcher.try_form(0, 20).has_value());
}

TEST(Serve, InfiniteMaxWaitNeverFlushesEarly) {
  // max_wait near UINT64_MAX means "wait for a full batch": the deadline
  // must saturate instead of wrapping into a premature flush
  Batcher batcher(SloConfig{UINT64_MAX, UINT64_MAX, 4});
  Rng rng(65);
  batcher.admit(Request{0, 0, 1000, Tensor8::random({1, 4}, rng)});
  EXPECT_FALSE(batcher.try_form(0, 1'000'000'000).has_value())
      << "any future arrival lies inside a saturated admission window";
  const auto drained = batcher.try_form(0, std::nullopt);
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->reason, FlushReason::kDrain);
}

TEST(Serve, BatcherExtendsAdmissionWhileEngineIsBusy) {
  // engine busy until cycle 1000: a request arriving at 600 — far past
  // the oldest request's deadline — can still join the batch
  Batcher batcher(SloConfig{100, UINT64_MAX, 4});
  Rng rng(63);
  batcher.admit(Request{0, 0, 10, Tensor8::random({1, 4}, rng)});
  EXPECT_FALSE(batcher.try_form(1000, 600).has_value())
      << "an arrival inside max(deadline, free_at) must be admitted first";
  batcher.admit(Request{1, 0, 600, Tensor8::random({1, 4}, rng)});
  const auto flushed = batcher.try_form(1000, 2000);
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->requests.size(), 2u);
  EXPECT_EQ(flushed->dispatch_cycles, 1000u);
}

}  // namespace
}  // namespace decimate
