// Wall-clock serving tests: the FaultInjector's deterministic schedules,
// EDF queue ordering and shed-victim selection, the pure admission
// decision, the ns -> cycle budget translation, and the WallClockServer
// end to end — a 4-thread bit-exact smoke (the TSan target), warm()
// refused once serve() runs (on a model whose one-image batches split
// over the executor's pool), one worker pool started at warm() and
// served on, prediction error against the pre-dispatch
// prediction, a per-model calibration that serving another model leaves
// untouched, reject-at-admission, a malformed request (wrong input
// shape, unknown model) rejected on its own, a deadline too long for
// the clock, shed-under-burst, and every rung of the fault-tolerance
// ladder under seeded injection: retry-then-succeed,
// watchdog-timeout-then-per-image-redispatch, quarantine-after-N
// consecutive failures, corrupt-artifact fallback to a fresh compile,
// and brown-out batch shrinking under a deep queue.
//
// Fault tests use deadlines in the seconds so WHICH requests complete is
// schedule-determined, not machine-speed-determined — the suite must
// pass identically under TSan's ~10x slowdown.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <map>
#include <thread>
#include <unistd.h>

#include "exec/engine.hpp"
#include "models/models.hpp"
#include "serve/fault.hpp"
#include "serve/wallclock.hpp"
#include "trace/metrics.hpp"

namespace decimate {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kHugeDeadlineNs = 20'000'000'000;  // 20 s: never binds

CompileOptions isa_options() {
  CompileOptions opt;
  opt.enable_isa = true;
  return opt;
}

Graph small_ffn() { return build_ffn_block(32, 64, 128, 8, 11); }

/// 2.1M-MAC gemm steps: above the engine's 1M-MAC intra-image floor, so a
/// one-image batch splits over the executor's pool (small_ffn's 262K-MAC
/// steps never do).
Graph split_ffn() { return build_ffn_block(64, 128, 256, 8, 12); }

std::vector<int> input_shape(const Graph& g) { return g.node(0).out_shape; }

/// One latency cache for the whole binary: tile geometries repeat across
/// tests, so every unique tile is ISS-measured once per test run.
std::shared_ptr<TileLatencyCache> shared_test_cache() {
  static auto cache = std::make_shared<TileLatencyCache>();
  return cache;
}

/// Installs the injector on construction, uninstalls on destruction.
/// Declare BEFORE the server under test: the injector must outlive every
/// thread that can fire a hook.
struct Installed {
  explicit Installed(fault::FaultInjector& inj) {
    fault::FaultInjector::install(&inj);
  }
  ~Installed() { fault::FaultInjector::install(nullptr); }
};

/// A scratch directory that cleans up after itself.
struct TempDir {
  TempDir() {
    path = (fs::temp_directory_path() /
            ("decimate_wallclock_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter()++)))
               .string();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
  std::string path;
};

WallRequest request(uint64_t id, int model, Tensor8 input,
                    uint64_t deadline_ns = kHugeDeadlineNs, int value = 1) {
  WallRequest r;
  r.id = id;
  r.model = model;
  r.value = value;
  r.deadline_ns = deadline_ns;
  r.input = std::move(input);
  return r;
}

std::map<ServeOutcome, int> outcome_counts(
    const std::vector<WallServed>& done) {
  std::map<ServeOutcome, int> counts;
  for (const WallServed& w : done) ++counts[w.outcome];
  return counts;
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministicOverEventCounts) {
  fault::FaultInjector inj(7);
  fault::SitePlan plan;
  plan.kind = fault::Kind::kException;
  plan.period = 3;
  plan.phase = 1;
  plan.count = 2;
  inj.set_plan(fault::Site::kWorkerTask, plan);

  std::vector<uint64_t> thrown_at;
  for (int i = 0; i < 9; ++i) {
    try {
      inj.fire(fault::Site::kWorkerTask);
    } catch (const fault::FaultInjectedError& e) {
      EXPECT_EQ(e.site(), fault::Site::kWorkerTask);
      thrown_at.push_back(e.seq());
    }
  }
  // period 3, phase 1 would fire at seqs 1, 4, 7, ... but count = 2 stops
  // the schedule after two injections
  ASSERT_EQ(thrown_at, (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(inj.events(fault::Site::kWorkerTask), 9u);
  EXPECT_EQ(inj.injected(fault::Site::kWorkerTask), 2u);
  // other sites never fired
  EXPECT_EQ(inj.events(fault::Site::kDispatchExec), 0u);
  EXPECT_EQ(inj.injected(fault::Site::kDispatchExec), 0u);
}

TEST(FaultInjector, FlipBitIsSeedDeterministicAndLandsInSecondHalf) {
  const std::vector<uint8_t> zeros(64, 0);
  fault::FaultInjector a(42);
  fault::FaultInjector b(42);

  std::vector<uint8_t> va = zeros;
  std::vector<uint8_t> vb = zeros;
  a.flip_bit(va, 5);
  b.flip_bit(vb, 5);
  EXPECT_EQ(va, vb);  // same (seed, seq) -> same bit

  int flipped_bits = 0;
  size_t flipped_at = 0;
  for (size_t i = 0; i < va.size(); ++i) {
    if (va[i] != 0) {
      flipped_at = i;
      for (int bit = 0; bit < 8; ++bit) flipped_bits += (va[i] >> bit) & 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);       // exactly one bit
  EXPECT_GE(flipped_at, 32u);       // second half: inside the CRC-covered
                                    // weight section for real artifacts
}

TEST(FaultInjector, UninstalledHookIsANoOp) {
  ASSERT_EQ(fault::FaultInjector::installed(), nullptr);
  EXPECT_NO_THROW(fault::on_site(fault::Site::kWorkerTask));
  EXPECT_NO_THROW(fault::on_site(fault::Site::kDispatchExec));
}

// --- EdfQueue / admission_decision ------------------------------------------

QueuedRequest queued(uint64_t id, uint64_t deadline_abs, int value = 1,
                     uint64_t arrival = 0, uint64_t pred = 100) {
  QueuedRequest q;
  q.req.id = id;
  q.req.value = value;
  q.arrival_ns = arrival;
  q.deadline_abs_ns = deadline_abs;
  q.predicted_exec_ns = pred;
  return q;
}

TEST(EdfQueue, OrdersByDeadlineStableOnTies) {
  EdfQueue q;
  q.push(queued(0, 300));
  q.push(queued(1, 100));
  q.push(queued(2, 200));
  q.push(queued(3, 100));  // ties queue behind earlier arrivals
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.backlog_ns(), 400u);
  EXPECT_EQ(q.front().req.id, 1u);

  const auto batch = q.pop_model_batch(0, 8);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].req.id, 1u);
  EXPECT_EQ(batch[1].req.id, 3u);
  EXPECT_EQ(batch[2].req.id, 2u);
  EXPECT_EQ(batch[3].req.id, 0u);
  EXPECT_EQ(q.backlog_ns(), 0u);
}

TEST(EdfQueue, PopModelBatchKeepsOtherModelsQueued) {
  EdfQueue q;
  auto a = queued(0, 100);
  a.req.model = 0;
  auto b = queued(1, 150);
  b.req.model = 1;
  auto c = queued(2, 200);
  c.req.model = 0;
  q.push(std::move(a));
  q.push(std::move(b));
  q.push(std::move(c));

  const auto batch = q.pop_model_batch(0, 8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].req.id, 0u);
  EXPECT_EQ(batch[1].req.id, 2u);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front().req.id, 1u);  // model 1 kept its place
}

TEST(EdfQueue, ShedVictimIsLowestValueThenLatestDeadline) {
  EdfQueue q;
  q.push(queued(0, 100, /*value=*/5));
  q.push(queued(1, 400, /*value=*/1));  // lowest value: first victim
  q.push(queued(2, 500, /*value=*/5));  // then latest deadline among value 5
  q.push(queued(3, 200, /*value=*/5));

  EXPECT_EQ(q.shed_one().req.id, 1u);
  EXPECT_EQ(q.shed_one().req.id, 2u);
  // of the remaining {0: deadline 100, 3: deadline 200}, the later
  // deadline sheds first
  EXPECT_EQ(q.shed_one().req.id, 3u);
}

TEST(EdfQueue, ShedVictimPrefersLatestDeadline) {
  EdfQueue q;
  q.push(queued(0, 100));
  q.push(queued(1, 200));
  EXPECT_EQ(q.shed_one().req.id, 1u);
  EXPECT_EQ(q.shed_one().req.id, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(Admission, DecisionBoundaries) {
  ASSERT_EQ(kAdmissionHeadroom, 1.25);
  // backlog 200 + prediction 200, scaled by the headroom, needs 500 ns:
  // admitted with exactly that much left to the deadline
  EXPECT_EQ(admission_decision(1000, 1000 + 500, 200, 200),
            ServeReason::kNone);
  // one ns less rejects
  EXPECT_EQ(admission_decision(1000, 1000 + 499, 200, 200),
            ServeReason::kAdmissionInfeasible);
  // the backlog counts like the request's own service time
  EXPECT_EQ(admission_decision(1000, 1000 + 500, 400, 0), ServeReason::kNone);
  EXPECT_EQ(admission_decision(1000, 1000 + 499, 0, 400),
            ServeReason::kAdmissionInfeasible);
  // a deadline already behind the clock rejects even free work
  EXPECT_EQ(admission_decision(1000, 999, 0, 0),
            ServeReason::kAdmissionInfeasible);
}

TEST(WallClock, CycleBudgetClampsBeyondTheCycleRange) {
  EXPECT_EQ(ns_to_cycles(1000, 0.25), 4000u);
  EXPECT_EQ(ns_to_cycles(0, 0.25), 0u);
  // uncalibrated: no cycle deadline at all
  EXPECT_EQ(ns_to_cycles(1000, 0.0), UINT64_MAX);
  // 2^63 ns at 0.25 ns/cycle is 2^65 cycles: beyond uint64, so the
  // budget clamps to "no deadline" instead of wrapping to a tight one
  EXPECT_EQ(ns_to_cycles(uint64_t{1} << 63, 0.25), UINT64_MAX);
  EXPECT_EQ(ns_to_cycles(UINT64_MAX, 0.25), UINT64_MAX);
  // just inside the range still converts
  EXPECT_EQ(ns_to_cycles(uint64_t{1} << 62, 0.5), uint64_t{1} << 63);
}

// --- WallClockServer: happy path --------------------------------------------

/// The TSan smoke: 4 submitter threads race submit() against the serving
/// loop and the executor thread; every request completes bit-exactly.
TEST(WallClock, ServesConcurrentSubmittersBitExact) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.max_batch = 4;
  WallClockServer server(store, DispatchConfig{1, {1, 2, 4}}, cfg);
  server.warm(m);
  EXPECT_GT(server.ns_per_cycle(m), 0.0);
  EXPECT_GT(server.sustained_img_per_s(m), 0.0);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 4;
  std::vector<std::vector<Tensor8>> inputs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + static_cast<uint64_t>(t));
    for (int i = 0; i < kPerThread; ++i) {
      inputs[static_cast<size_t>(t)].push_back(
          Tensor8::random(input_shape(g), rng));
    }
  }

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id =
            static_cast<uint64_t>(t) * kPerThread + static_cast<uint64_t>(i);
        server.submit(request(id, m,
                              inputs[static_cast<size_t>(t)]
                                    [static_cast<size_t>(i)]));
      }
    });
  }
  std::thread closer([&] {
    for (std::thread& t : submitters) t.join();
    server.close();
  });
  const std::vector<WallServed> done = server.serve();
  closer.join();

  ASSERT_EQ(done.size(), static_cast<size_t>(kThreads * kPerThread));
  ExecutionEngine engine;
  for (const WallServed& w : done) {
    ASSERT_EQ(w.outcome, ServeOutcome::kOk)
        << "request " << w.id << ": " << to_string(w.reason) << " "
        << w.detail;
    EXPECT_EQ(w.reason, ServeReason::kNone);
    EXPECT_GE(w.group_size, 1);
    EXPECT_GE(w.completion_ns, w.arrival_ns);
    const int t = static_cast<int>(w.id) / kPerThread;
    const int i = static_cast<int>(w.id) % kPerThread;
    const NetworkRun ref = engine.run(
        store.plan(m, 1, 1),
        inputs[static_cast<size_t>(t)][static_cast<size_t>(i)]);
    EXPECT_TRUE(w.output == ref.output)
        << "request " << w.id << " output differs from sequential run";
  }
}

TEST(WallClock, WarmAfterServeHasStartedThrows) {
  // warm() writes the cost table the executor reads while serving, so
  // once serve() runs a warm() is refused with an Error — and the model
  // already being served keeps completing bit-exactly
  PlanStore store(isa_options(), shared_test_cache());
  const Graph a = split_ffn();
  const Graph b = small_ffn();
  const int ma = store.add_model(a);
  const int mb = store.add_model(b);

  WallClockConfig cfg;
  cfg.max_batch = 2;
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1, 2}}, cfg);
  server.warm(ma);

  constexpr int kRequests = 6;
  Rng rng(43);
  std::vector<Tensor8> inputs;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(Tensor8::random(input_shape(a), rng));
  }
  auto& served_ok = metrics::registry().counter("serve.wall.served_ok");
  const uint64_t ok_before = served_ok.value();
  std::vector<WallServed> done;
  std::exception_ptr serve_error;
  std::thread serving([&] {
    try {
      done = server.serve();
    } catch (...) {
      serve_error = std::current_exception();
    }
  });
  // a lone first request: a one-image batch, split on the executor
  server.submit(request(0, ma, inputs[0]));
  // serve() has started once it has served that request
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (served_ok.value() == ok_before &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(served_ok.value(), ok_before) << "the first request never served";
  EXPECT_THROW(server.warm(mb), Error);
  for (int i = 1; i < kRequests; ++i) {
    server.submit(request(static_cast<uint64_t>(i), ma,
                          inputs[static_cast<size_t>(i)]));
  }
  server.close();
  serving.join();
  if (serve_error) std::rethrow_exception(serve_error);

  ASSERT_EQ(done.size(), static_cast<size_t>(kRequests));
  ExecutionEngine engine;
  for (const WallServed& w : done) {
    ASSERT_EQ(w.outcome, ServeOutcome::kOk)
        << "request " << w.id << ": " << to_string(w.reason) << " "
        << w.detail;
    EXPECT_TRUE(w.output ==
                engine.run(store.plan(ma, 1, 1),
                           inputs[static_cast<size_t>(w.id)])
                    .output)
        << "request " << w.id << " output differs from sequential run";
  }
}

TEST(WallClock, ServesOnOnePoolStartedAtWarm) {
  // warm()'s calibration is a one-image run_batch on the executor's
  // engine, and split_ffn's image splits, so the one worker pool the
  // server serves on starts there; one- and two-image batches then run
  // on that pool and start no other
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = split_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.max_batch = 2;
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  auto& started = metrics::registry().counter("exec.pool.threads_started");
  const uint64_t before = started.value();
  WallClockServer server(store, DispatchConfig{1, {1, 2}}, cfg);
  server.warm(m);
  // the caller joins every pool job, so a full pool has one thread fewer
  // than the machine
  const uint64_t pool_threads =
      std::max(1u, std::thread::hardware_concurrency()) - 1;
  EXPECT_EQ(started.value(), before + pool_threads);

  Rng rng(47);
  for (uint64_t id = 0; id < 5; ++id) {
    server.submit(request(id, m, Tensor8::random(input_shape(g), rng)));
  }
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 5u);
  std::map<int, int> images_by_group;
  for (const WallServed& w : done) {
    ASSERT_EQ(w.outcome, ServeOutcome::kOk) << w.detail;
    ++images_by_group[w.group_size];
  }
  EXPECT_EQ(images_by_group, (std::map<int, int>{{1, 1}, {2, 4}}));
  EXPECT_EQ(started.value(), before + pool_threads)
      << "serving started a worker pool besides warm()'s";
}

TEST(WallClock, PredictionErrorUsesThePreDispatchPrediction) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.max_batch = 2;
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1, 2}}, cfg);
  server.warm(m);
  // nothing has been served yet, so this is the estimate the first
  // batch's admission and watchdog act on
  const uint64_t pred = server.predicted_exec_ns(m, 2);
  auto& errors = metrics::registry().histogram("serve.wall.model_error_pct");
  const uint64_t errors_before = errors.count();

  Rng rng(31);
  server.submit(request(0, m, Tensor8::random(input_shape(g), rng)));
  server.submit(request(1, m, Tensor8::random(input_shape(g), rng)));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 2u);
  for (const WallServed& w : done) {
    ASSERT_EQ(w.outcome, ServeOutcome::kOk) << w.detail;
    EXPECT_EQ(w.group_size, 2);
    EXPECT_EQ(w.modeled_exec_ns, pred)
        << "the report must carry the prediction made before dispatch, "
           "not one recomputed after the calibration absorbed the batch";
  }
  EXPECT_EQ(errors.count(), errors_before + 1);  // one per batch
}

TEST(WallClock, ServingOneModelLeavesAnotherModelsCalibration) {
  // each model keeps its own ns/cycle: a batch's wall time feeds only the
  // model that ran, so serving model A never moves model B's predictions
  PlanStore store(isa_options(), shared_test_cache());
  const Graph ga = small_ffn();
  const Graph gb = build_ffn_block(32, 64, 128, 0, 13);  // dense sibling
  const int a = store.add_model(ga);
  const int b = store.add_model(gb);

  WallClockConfig cfg;
  cfg.max_batch = 2;
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1, 2}}, cfg);
  EXPECT_EQ(server.ns_per_cycle(a), 0.0);  // not warm()ed yet
  server.warm(a);
  server.warm(b);
  ASSERT_GT(server.ns_per_cycle(a), 0.0);
  const double b_ns_per_cycle = server.ns_per_cycle(b);
  const uint64_t b_pred = server.predicted_exec_ns(b, 1);
  ASSERT_GT(b_ns_per_cycle, 0.0);

  Rng rng(41);
  for (uint64_t id = 0; id < 4; ++id) {
    server.submit(request(id, a, Tensor8::random(input_shape(ga), rng)));
  }
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 4u);
  for (const WallServed& w : done) {
    ASSERT_EQ(w.outcome, ServeOutcome::kOk) << w.detail;
  }
  EXPECT_EQ(server.ns_per_cycle(b), b_ns_per_cycle);
  EXPECT_EQ(server.predicted_exec_ns(b, 1), b_pred);
  EXPECT_GT(server.ns_per_cycle(a), 0.0);
}

TEST(WallClock, RejectsAtAdmissionWhenDeadlineIsInfeasible) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockServer server(store, DispatchConfig{1, {1}}, WallClockConfig{});
  server.warm(m);

  Rng rng(3);
  // 1 ns to deadline: predicted service alone blows the budget
  server.submit(request(0, m, Tensor8::random(input_shape(g), rng), 1));
  // a generous sibling is still admitted afterwards
  server.submit(request(1, m, Tensor8::random(input_shape(g), rng)));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 2u);
  std::map<uint64_t, const WallServed*> by_id;
  for (const WallServed& w : done) by_id[w.id] = &w;
  EXPECT_EQ(by_id[0]->outcome, ServeOutcome::kRejected);
  EXPECT_EQ(by_id[0]->reason, ServeReason::kAdmissionInfeasible);
  EXPECT_THROW(throw by_id[0]->error(), ServeError);
  EXPECT_EQ(by_id[1]->outcome, ServeOutcome::kOk);
}

TEST(WallClock, WrongShapeRequestIsRejectedAsMalformedAlone) {
  // one wrong-shape request among well-formed ones in the same batch
  // window: it ends as its own typed rejection, and the others serve
  // bit-exactly with no retry and no quarantine
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.max_batch = 4;
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1, 2, 4}}, cfg);
  server.warm(m);

  auto& malformed =
      metrics::registry().counter("serve.wall.rejected.malformed");
  const uint64_t malformed_before = malformed.value();
  Rng rng(71);
  std::vector<Tensor8> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(Tensor8::random(input_shape(g), rng));
  }
  std::vector<int> wrong = input_shape(g);
  wrong[0] += 1;  // one token too many
  server.submit(request(0, m, inputs[0]));
  server.submit(request(1, m, Tensor8::random(wrong, rng)));
  server.submit(request(2, m, inputs[1]));
  server.submit(request(3, m, inputs[2]));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 4u);
  ExecutionEngine engine;
  for (const WallServed& w : done) {
    EXPECT_EQ(w.retries, 0) << "request " << w.id;
    EXPECT_FALSE(w.redispatched) << "request " << w.id;
    if (w.id == 1) {
      EXPECT_EQ(w.outcome, ServeOutcome::kRejected);
      EXPECT_EQ(w.reason, ServeReason::kMalformed);
      EXPECT_THROW(throw w.error(), ServeError);
      continue;
    }
    ASSERT_EQ(w.outcome, ServeOutcome::kOk)
        << "request " << w.id << ": " << to_string(w.reason) << " "
        << w.detail;
    const Tensor8& in = inputs[w.id == 0 ? 0 : w.id - 1];
    EXPECT_TRUE(w.output == engine.run(store.plan(m, 1, 1), in).output)
        << "request " << w.id << " output differs from sequential run";
  }
  EXPECT_EQ(malformed.value(), malformed_before + 1);
  EXPECT_EQ(store.quarantines(), 0);
}

TEST(WallClock, UnknownModelIsRejectedAsMalformed) {
  // a model id that was never warm()ed has no cost table to admit
  // against: a typed rejection, not an exception out of submit()
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1}}, cfg);
  server.warm(m);

  Rng rng(73);
  const Tensor8 input = Tensor8::random(input_shape(g), rng);
  EXPECT_NO_THROW(server.submit(request(0, m + 1, input)));
  server.submit(request(1, m, input));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 2u);
  std::map<uint64_t, const WallServed*> by_id;
  for (const WallServed& w : done) by_id[w.id] = &w;
  EXPECT_EQ(by_id[0]->outcome, ServeOutcome::kRejected);
  EXPECT_EQ(by_id[0]->reason, ServeReason::kMalformed);
  EXPECT_EQ(by_id[1]->outcome, ServeOutcome::kOk) << by_id[1]->detail;
}

TEST(WallClock, VeryLongDeadlinesAreServedAsLoose) {
  // UINT64_MAX is "no deadline" (SloConfig::deadline_cycles' default)
  // and 2^63 ns outlasts any run: both must be admitted and modeled like
  // any loose deadline (batch-fused, never the lowest-latency sharded
  // placement), however fast this host calibrates its ns/cycle
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.max_batch = 1;
  WallClockServer server(store, DispatchConfig{4, {1}}, cfg);
  server.warm(m);

  Rng rng(5);
  server.submit(
      request(0, m, Tensor8::random(input_shape(g), rng), UINT64_MAX));
  server.submit(request(1, m, Tensor8::random(input_shape(g), rng),
                        uint64_t{1} << 63));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 2u);
  std::map<uint64_t, const WallServed*> by_id;
  for (const WallServed& w : done) {
    ASSERT_EQ(w.outcome, ServeOutcome::kOk)
        << "request " << w.id << ": " << to_string(w.reason);
    EXPECT_TRUE(w.deadline_hit);
    EXPECT_EQ(w.mode, ServeMode::kBatchFused) << "request " << w.id;
    by_id[w.id] = &w;
  }
  // the absolute deadline saturates instead of wrapping behind arrival
  EXPECT_EQ(by_id[0]->deadline_abs_ns, UINT64_MAX);
}

TEST(WallClock, ShedsLowestValueUnderBurst) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.max_batch = 4;
  cfg.admission.max_queue_depth = 4;
  WallClockServer server(store, DispatchConfig{1, {1, 2, 4}}, cfg);
  server.warm(m);

  Rng rng(9);
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) {
    server.submit(
        request(static_cast<uint64_t>(i), m,
                Tensor8::random(input_shape(g), rng)));
  }
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), static_cast<size_t>(kBurst));
  const auto counts = outcome_counts(done);
  EXPECT_EQ(counts.at(ServeOutcome::kShed), kBurst - 4);
  EXPECT_EQ(counts.at(ServeOutcome::kOk), 4);
  for (const WallServed& w : done) {
    if (w.outcome == ServeOutcome::kShed) {
      EXPECT_EQ(w.reason, ServeReason::kShedQueueDepth);
    }
  }
}

TEST(WallClock, HighValueArrivalDisplacesLowValueWaiter) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  WallClockConfig cfg;
  cfg.max_batch = 1;
  cfg.admission.max_queue_depth = 1;
  WallClockServer server(store, DispatchConfig{1, {1}}, cfg);
  server.warm(m);

  Rng rng(11);
  server.submit(request(0, m, Tensor8::random(input_shape(g), rng),
                        kHugeDeadlineNs, /*value=*/1));
  server.submit(request(1, m, Tensor8::random(input_shape(g), rng),
                        kHugeDeadlineNs, /*value=*/10));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 2u);
  std::map<uint64_t, const WallServed*> by_id;
  for (const WallServed& w : done) by_id[w.id] = &w;
  EXPECT_EQ(by_id[0]->outcome, ServeOutcome::kShed);  // low value evicted
  EXPECT_EQ(by_id[1]->outcome, ServeOutcome::kOk);
}

// --- WallClockServer: fault-tolerance ladder --------------------------------

TEST(WallClock, RetriesTransientDispatchFaultThenSucceeds) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  fault::FaultInjector inj(21);
  fault::SitePlan plan;
  plan.kind = fault::Kind::kException;
  plan.period = 1;
  plan.phase = 0;
  plan.count = 1;  // exactly the first dispatch fails
  inj.set_plan(fault::Site::kDispatchExec, plan);
  Installed guard(inj);

  WallClockConfig cfg;
  cfg.max_batch = 1;
  cfg.max_retries = 2;
  cfg.retry_backoff_ns = 100'000;
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1}}, cfg);
  server.warm(m);

  Rng rng(17);
  const Tensor8 input = Tensor8::random(input_shape(g), rng);
  server.submit(request(0, m, input));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, ServeOutcome::kOk);
  EXPECT_EQ(done[0].retries, 1);
  EXPECT_FALSE(done[0].redispatched);
  EXPECT_EQ(inj.injected(fault::Site::kDispatchExec), 1u);
  ExecutionEngine engine;
  EXPECT_TRUE(done[0].output == engine.run(store.plan(m, 1, 1), input).output);
}

TEST(WallClock, ExhaustedRetriesFailWithTypedWorkerFault) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  fault::FaultInjector inj(22);
  fault::SitePlan plan;
  plan.kind = fault::Kind::kException;
  plan.period = 1;  // every dispatch fails
  inj.set_plan(fault::Site::kDispatchExec, plan);
  Installed guard(inj);

  WallClockConfig cfg;
  cfg.max_batch = 1;
  cfg.max_retries = 1;
  cfg.retry_backoff_ns = 50'000;
  cfg.quarantine_after = 100;  // keep quarantine out of this test
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1}}, cfg);
  server.warm(m);

  Rng rng(19);
  server.submit(request(0, m, Tensor8::random(input_shape(g), rng)));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, ServeOutcome::kFailed);
  EXPECT_EQ(done[0].reason, ServeReason::kWorkerFault);
  EXPECT_FALSE(done[0].detail.empty());
  const ServeError err = done[0].error();
  EXPECT_EQ(err.reason(), ServeReason::kWorkerFault);
  EXPECT_EQ(err.request_id(), 0u);
}

TEST(WallClock, WatchdogTimeoutRecoversViaPerImageRedispatch) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  fault::FaultInjector inj(23);
  fault::SitePlan plan;
  plan.kind = fault::Kind::kStall;
  plan.period = 1;
  plan.phase = 0;
  plan.count = 1;  // exactly the first dispatch hangs
  inj.set_plan(fault::Site::kDispatchExec, plan);
  inj.set_stall_ns(30'000'000'000);  // 30 s: only the cancel flag ends it
  Installed guard(inj);

  WallClockConfig cfg;
  cfg.max_batch = 2;
  cfg.watchdog_floor_ns = 5'000'000;  // abandon after ~5 ms
  cfg.watchdog_factor = 1.0;
  WallClockServer server(store, DispatchConfig{1, {1, 2}}, cfg);
  server.warm(m);
  const uint64_t single_pred = server.predicted_exec_ns(m, 1);

  Rng rng(29);
  const Tensor8 in0 = Tensor8::random(input_shape(g), rng);
  const Tensor8 in1 = Tensor8::random(input_shape(g), rng);
  server.submit(request(0, m, in0));
  server.submit(request(1, m, in1));
  server.close();

  const uint64_t timeouts_before =
      metrics::registry().counter("serve.wall.timeouts").value();
  auto& exec_ns = metrics::registry().histogram("serve.wall.exec_ns");
  const uint64_t exec_samples_before = exec_ns.count();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 2u);
  ExecutionEngine engine;
  std::map<uint64_t, const WallServed*> by_id;
  for (const WallServed& w : done) by_id[w.id] = &w;
  for (const auto& [id, w] : by_id) {
    EXPECT_EQ(w->outcome, ServeOutcome::kOk)
        << "request " << id << ": " << w->detail;
    EXPECT_TRUE(w->redispatched);
    EXPECT_EQ(w->group_size, 1);  // per-image recovery
    EXPECT_EQ(w->modeled_exec_ns, single_pred);  // admission's estimate
  }
  // redispatched requests record their exec time like every served one
  EXPECT_EQ(exec_ns.count(), exec_samples_before + 2);
  EXPECT_TRUE(by_id[0]->output == engine.run(store.plan(m, 1, 1), in0).output);
  EXPECT_TRUE(by_id[1]->output == engine.run(store.plan(m, 1, 1), in1).output);
  EXPECT_GT(metrics::registry().counter("serve.wall.timeouts").value(),
            timeouts_before);
  // the abandoned stall was actually cancelled (not slept to term):
  // server destruction joined the executor without waiting 30 s, or this
  // test would time out
}

TEST(WallClock, QuarantinesPlansAfterConsecutiveFailures) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  fault::FaultInjector inj(31);
  fault::SitePlan plan;
  plan.kind = fault::Kind::kException;
  plan.period = 1;
  plan.phase = 0;
  plan.count = 2;  // two dispatches fail, then the injector goes quiet
  inj.set_plan(fault::Site::kDispatchExec, plan);
  Installed guard(inj);

  WallClockConfig cfg;
  cfg.max_batch = 1;
  cfg.max_retries = 0;       // every failure is terminal for its batch
  cfg.quarantine_after = 2;  // the second consecutive failure quarantines
  cfg.watchdog_floor_ns = 30'000'000'000;  // a slow host must not redispatch
  WallClockServer server(store, DispatchConfig{1, {1}}, cfg);
  server.warm(m);
  const int compiles_after_warm = store.compiles();

  Rng rng(37);
  const Tensor8 in0 = Tensor8::random(input_shape(g), rng);
  const Tensor8 in1 = Tensor8::random(input_shape(g), rng);
  server.submit(request(0, m, in0));
  server.submit(request(1, m, in1));
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), 2u);
  std::map<uint64_t, const WallServed*> by_id;
  for (const WallServed& w : done) by_id[w.id] = &w;
  // request 0: first failure, under the quarantine threshold -> kFailed
  EXPECT_EQ(by_id[0]->outcome, ServeOutcome::kFailed);
  EXPECT_EQ(by_id[0]->reason, ServeReason::kWorkerFault);
  // request 1: second consecutive failure trips quarantine; the
  // post-quarantine attempt runs on a freshly compiled plan and succeeds
  EXPECT_EQ(by_id[1]->outcome, ServeOutcome::kOk)
      << to_string(by_id[1]->reason) << " " << by_id[1]->detail;
  EXPECT_GE(store.quarantines(), 1);
  EXPECT_GT(store.compiles(), compiles_after_warm)
      << "the post-quarantine attempt must compile fresh";
  ExecutionEngine engine;
  EXPECT_TRUE(by_id[1]->output == engine.run(store.plan(m, 1, 1), in1).output);
}

TEST(WallClock, CorruptRegistryArtifactFallsBackToFreshCompile) {
  const Graph g = small_ffn();
  TempDir dir;

  // publisher: compile once, write through to the registry
  Tensor8 expect;
  {
    PlanStore store(isa_options(), shared_test_cache());
    store.attach_registry(dir.path);
    const int m = store.add_model(g);
    Rng rng(41);
    const Tensor8 input = Tensor8::random(input_shape(g), rng);
    expect = ExecutionEngine().run(store.plan(m, 1, 1), input).output;
  }

  // every registry load in the consumer sees one flipped bit in the
  // CRC-covered weight section; the admission gate must reject it and
  // the store must compile from the graph instead of serving garbage
  fault::FaultInjector inj(43);
  fault::SitePlan plan;
  plan.kind = fault::Kind::kBitFlip;
  plan.period = 1;
  inj.set_plan(fault::Site::kRegistryLoad, plan);
  Installed guard(inj);

  PlanStore store(isa_options(), shared_test_cache());
  store.attach_registry(dir.path);
  const int m = store.add_model(g);
  const CompiledPlan& fresh = store.plan(m, 1, 1);

  EXPECT_GE(store.registry_faults(), 1);
  EXPECT_GE(store.compiles(), 1);
  EXPECT_EQ(store.registry_loads(), 0);
  EXPECT_GE(inj.injected(fault::Site::kRegistryLoad), 1u);
  Rng rng(41);
  const Tensor8 input = Tensor8::random(input_shape(g), rng);
  EXPECT_TRUE(ExecutionEngine().run(fresh, input).output == expect);
}

TEST(WallClock, BrownOutShrinksBatchesUnderDeepQueue) {
  PlanStore store(isa_options(), shared_test_cache());
  const Graph g = small_ffn();
  const int m = store.add_model(g);

  // brown-out starts at 4 x max_batch = 8 queued requests; below that,
  // pairs dispatch
  WallClockConfig cfg;
  cfg.max_batch = 2;
  WallClockServer server(store, DispatchConfig{1, {1, 2}}, cfg);
  server.warm(m);

  const uint64_t transitions_before =
      metrics::registry().counter("serve.wall.brownout_transitions").value();
  Rng rng(47);
  constexpr int kBurst = 24;
  for (int i = 0; i < kBurst; ++i) {
    server.submit(
        request(static_cast<uint64_t>(i), m,
                Tensor8::random(input_shape(g), rng)));
  }
  server.close();
  const auto done = server.serve();

  ASSERT_EQ(done.size(), static_cast<size_t>(kBurst));
  // members of one batch share its dispatch stamp
  std::map<uint64_t, int> batch_sizes;  // dispatch_ns -> members
  for (const WallServed& w : done) {
    // huge deadlines: brown-out degrades batching, never correctness
    EXPECT_EQ(w.outcome, ServeOutcome::kOk) << "request " << w.id;
    ++batch_sizes[w.dispatch_ns];
  }
  std::vector<int> sizes;
  for (const auto& [at, n] : batch_sizes) sizes.push_back(n);
  // depths 24 down to 8 dispatch single images (17 batches); the last 7
  // requests go out in pairs
  std::vector<int> expect(17, 1);
  expect.insert(expect.end(), {2, 2, 2, 1});
  EXPECT_EQ(sizes, expect);
  EXPECT_GT(
      metrics::registry().counter("serve.wall.brownout_transitions").value(),
      transitions_before);
  EXPECT_EQ(server.brownout_level(), 0) << "level decays once drained";
}

}  // namespace
}  // namespace decimate
