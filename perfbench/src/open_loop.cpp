// The two open-loop workloads, served by WallClockServer under the
// bench_serving deployment config. Arrivals are Poisson at a fixed rate
// and every request is timed from when it was due, so a stalled server
// (or a late generator, which invalidates the run) shows in latency.
//
//  - vit_ffn_open: ViT FFN block (196 tokens, 384->1536->384) alternating
//    dense / 1:8 at about half this host's capacity. Requests take a few
//    ms, so admission, the EDF queue and the executor handoff are a large
//    share of latency, and there is no conv work at all.
//  - mixed_registry_open: ResNet18 1:16 and ViT FFN 1:8 at a fixed 1:3
//    ratio, each with its own deadline, at about half capacity. Setup is
//    a cold start from a PlanRegistry an untimed pre-phase published.

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "models/models.hpp"
#include "serve/wallclock.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace decimate;

namespace {

struct ModelSpec {
  std::string family;  // "resnet18" / "vit_ffn": per-model metric suffix
  std::string name;    // plan label in the profile
  Graph graph;
  int pool_size = 0;
  double deadline_ms = 0.0;
};

struct OpenSpec {
  std::vector<ModelSpec> models;
  std::vector<int> pattern;  // model slot of arrival i is pattern[i % size]
  double rate = 0.0;         // req/s
  double tail_q = 0.99;      // latency_tail_ms percentile
  bool registry = false;     // cold start from a published PlanRegistry
};

struct Arrival {
  uint64_t due_ns = 0;  // offset from the start of the run
  int slot = 0;
  int input = 0;        // index into the slot's oracle pool
};

/// The seeded arrival schedule: exponential gaps at `rate`, model slot by
/// the fixed pattern, input drawn uniformly from the model's pool.
std::vector<Arrival> schedule(const OpenSpec& spec, uint64_t seed,
                              double seconds) {
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (size_t i = 0;; ++i) {
    t += -std::log1p(-rng.uniform()) / spec.rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<uint64_t>(t * 1e9);
    a.slot = spec.pattern[i % spec.pattern.size()];
    a.input = rng.uniform_int(
        0, spec.models[static_cast<size_t>(a.slot)].pool_size - 1);
    out.push_back(a);
  }
  return out;
}

struct Live {
  std::unique_ptr<PlanStore> store;
  std::unique_ptr<WallClockServer> server;  // references *store
  std::vector<int> ids;

  /// Tear down in dependency order: the server before its store.
  void reset() {
    server.reset();
    store.reset();
    ids.clear();
  }
};

DispatchConfig dispatch_config() {
  DispatchConfig d;
  d.num_clusters = kClusters;
  d.fused_batches.assign(std::begin(kFusedBatches), std::end(kFusedBatches));
  return d;
}

WallClockConfig wall_config() {
  WallClockConfig w;
  w.max_batch = kServeMaxBatch;
  w.admission.max_queue_depth = kServeQueueDepth;
  w.watchdog_floor_ns = kWatchdogFloorNs;
  return w;
}

CompileOptions compile_options(const std::string& registry_dir) {
  CompileOptions copt;
  copt.enable_isa = true;
  // the registry carries the ISS warm file next to the artifacts; a store
  // constructed with this path loads it, which keeps shard planning of
  // loaded plans ISS-free
  if (!registry_dir.empty()) {
    copt.latency_cache_path = registry_dir + "/latencies.bin";
  }
  return copt;
}

/// Fresh process state -> ready to serve: store (+ registry), server,
/// add_model and warm for every model. Each plan the server will use is
/// requested first through warm_plan so the traced run can attribute
/// compile / load time per plan; WallClockServer::warm then finds them
/// cached and adds its shard schedules and calibration runs.
Live setup(const OpenSpec& spec, const std::string& registry_dir,
           Tracer& tracer) {
  Live live;
  live.store = std::make_unique<PlanStore>(compile_options(registry_dir));
  if (!registry_dir.empty()) live.store->attach_registry(registry_dir);
  live.server = std::make_unique<WallClockServer>(
      *live.store, dispatch_config(), wall_config());
  for (const ModelSpec& m : spec.models) {
    const int id = live.store->add_model(m.graph);
    for (const int b : kFusedBatches) warm_plan(*live.store, tracer, id, b, 1);
    warm_plan(*live.store, tracer, id, 1, kClusters);
    const Tracer::Scope span(tracer, "serve.warm");
    live.server->warm(id);
    live.ids.push_back(id);
  }
  return live;
}

/// Untimed pre-phase of the registry workload: compile every plan the
/// server will need into a fresh directory and save the ISS warm file.
void publish_registry(const OpenSpec& spec, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  PlanStore store(compile_options(dir));
  store.attach_registry(dir);
  Dispatcher dispatcher(store, dispatch_config());
  for (const ModelSpec& m : spec.models) {
    dispatcher.warm(store.add_model(m.graph));
  }
  store.save_latencies();
  // write the artifacts back now, so no writeback of them competes with
  // the timed phases
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  DECIMATE_CHECK(fd >= 0 && syncfs(fd) == 0, "cannot sync " << dir);
  close(fd);
}

double frac(int64_t n, int64_t d) {
  return d > 0 ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
}

int run_open_loop(const Args& args, const OpenSpec& spec) {
  Outcome out;
  Tracer tracer(args.trace);
  const size_t n_models = spec.models.size();

  std::vector<OraclePool> pools;
  for (size_t i = 0; i < n_models; ++i) {
    pools.push_back(make_oracle(spec.models[i].graph, spec.models[i].pool_size,
                                args.seed * 1009 + 100 + i));
  }
  std::string registry_dir;
  if (spec.registry) {
    registry_dir = args.out_dir + "/registry-" + std::to_string(getpid());
    publish_registry(spec, registry_dir);
  }

  Live live;
  SetupSampler setups(
      tracer, out,
      [&] {
        live.reset();
        live = setup(spec, registry_dir, tracer);
        return SetupCounts{live.store->compiles(),
                           live.store->shared_latencies()->misses(),
                           live.store->registry_loads()};
      },
      [&] {
        std::vector<const CompiledPlan*> plans;
        for (const int id : live.ids) {
          for (const int b : kFusedBatches) {
            plans.push_back(&live.store->plan(id, b));
          }
          plans.push_back(&live.store->plan(id, 1, kClusters));
        }
        return plans;
      });
  setups.sample(kSetupReps, "before the run");
  if (spec.registry) {
    out.check(live.store->compiles() == 0,
              "registry cold start compiled " +
                  std::to_string(live.store->compiles()) + " plans");
    out.check(live.store->shared_latencies()->misses() == 0,
              "registry cold start simulated ISS tiles");
    uint64_t bytes = 0;
    for (const auto& info : live.store->registry()->list()) {
      bytes += info.total_bytes;
    }
    out.set("artifact.bytes", static_cast<double>(bytes));
  } else {
    out.set("artifact.bytes", 0.0);
  }

  // mix shares and the modeled MCU cost of an image under the mix
  std::vector<double> share(n_models, 0.0);
  for (const int s : spec.pattern) {
    share[static_cast<size_t>(s)] +=
        1.0 / static_cast<double>(spec.pattern.size());
  }
  double mcycles = 0.0;
  for (size_t i = 0; i < n_models; ++i) {
    const CompiledPlan& single = live.store->plan(live.ids[i], 1);
    mcycles += share[i] * static_cast<double>(single.total_cycles) / 1e6;
  }
  out.set("mcu_mcycles_per_img", mcycles, "Mcycles");

  // --- the run: generator on this thread, serve() on its own ---------------
  const std::vector<Arrival> arrivals = schedule(spec, args.seed, args.seconds);
  WallClockServer& server = *live.server;
  const uint64_t retries_before = counter("serve.wall.retries");
  std::vector<WallServed> done;
  std::exception_ptr serve_error;
  std::thread serving([&] {
    try {
      done = server.serve();
    } catch (...) {
      serve_error = std::current_exception();
    }
  });
  const auto start = std::chrono::steady_clock::now();
  const uint64_t t0 = server.now_ns();  // due times on the server's clock
  std::exception_ptr submit_error;
  try {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const ModelSpec& m = spec.models[static_cast<size_t>(a.slot)];
      WallRequest r;
      r.id = i;
      r.model = live.ids[static_cast<size_t>(a.slot)];
      r.deadline_ns = static_cast<uint64_t>(m.deadline_ms * 1e6);
      r.input = pools[static_cast<size_t>(a.slot)]
                    .inputs[static_cast<size_t>(a.input)];
      std::this_thread::sleep_until(start + std::chrono::nanoseconds(a.due_ns));
      // the traced run traces even seconds of the schedule and leaves odd
      // ones untraced; the latency gap between them is the tracer's overhead
      tracer.set_active((a.due_ns / 1'000'000'000) % 2 == 0);
      const Tracer::Scope span(tracer, "loadgen.submit", i);
      server.submit(std::move(r));
    }
  } catch (...) {
    submit_error = std::current_exception();
  }
  tracer.set_active(true);
  server.close();
  serving.join();
  if (submit_error) std::rethrow_exception(submit_error);
  if (serve_error) std::rethrow_exception(serve_error);
  const uint64_t retries_moved = counter("serve.wall.retries") - retries_before;
  // replaces `live`: `server` must not be used after this
  setups.sample(kSetupReps, "after the run");

  // --- score every request against the oracle -------------------------------
  out.attempted = static_cast<int64_t>(arrivals.size());
  out.check(done.size() == arrivals.size(),
            "server reported " + std::to_string(done.size()) +
                " outcomes for " + std::to_string(arrivals.size()) +
                " requests");
  int64_t ok = 0, in_deadline = 0, rejected = 0, shed = 0;
  int64_t sharded = 0, data_parallel = 0, redispatched = 0;
  uint64_t retries = 0;
  std::vector<double> latency, lag, wait, exec, lat_traced, lat_untraced;
  std::map<std::string, std::vector<double>> predict_err;
  std::set<std::pair<uint64_t, int>> batches;  // (dispatch stamp, model)
  for (const WallServed& w : done) {
    const Arrival& a = arrivals[static_cast<size_t>(w.id)];
    const ModelSpec& m = spec.models[static_cast<size_t>(a.slot)];
    const double due = static_cast<double>(t0 + a.due_ns);
    lag.push_back((static_cast<double>(w.arrival_ns) - due) / 1e6);
    switch (w.outcome) {
      case ServeOutcome::kOk: {
        const OraclePool& pool = pools[static_cast<size_t>(a.slot)];
        if (!(w.output == pool.outputs[static_cast<size_t>(a.input)])) {
          ++out.failed;
          break;
        }
        ++ok;
        const double lat_ms =
            (static_cast<double>(w.completion_ns) - due) / 1e6;
        latency.push_back(lat_ms);
        ((a.due_ns / 1'000'000'000) % 2 == 0 ? lat_traced : lat_untraced)
            .push_back(lat_ms);
        in_deadline += lat_ms <= m.deadline_ms ? 1 : 0;
        const double exec_ns =
            static_cast<double>(w.completion_ns - w.dispatch_ns);
        wait.push_back(static_cast<double>(w.dispatch_ns - w.arrival_ns) / 1e6);
        exec.push_back(exec_ns / 1e6);
        if (exec_ns > 0) {
          predict_err[m.family].push_back(
              std::abs(static_cast<double>(w.modeled_exec_ns) - exec_ns) /
              exec_ns * 100.0);
        }
        sharded += w.mode == ServeMode::kShardedSingle ? 1 : 0;
        data_parallel += w.mode == ServeMode::kDataParallel ? 1 : 0;
        redispatched += w.redispatched ? 1 : 0;
        if (batches.insert({w.dispatch_ns, w.model}).second) {
          retries += static_cast<uint64_t>(w.retries);
        }
        break;
      }
      case ServeOutcome::kRejected: ++rejected; break;
      case ServeOutcome::kShed: ++shed; break;
      case ServeOutcome::kFailed: ++out.failed; break;
    }
  }
  out.check(retries == retries_moved,
            "serve.wall.retries moved by " + std::to_string(retries_moved) +
                ", served batches report " + std::to_string(retries));

  const int64_t n = out.attempted;
  out.set("throughput_img_s", static_cast<double>(ok) / args.seconds, "img/s");
  out.set("goodput_img_s", static_cast<double>(in_deadline) / args.seconds,
          "img/s");
  latency_metrics(latency, spec.tail_q, "served requests (completion - due)",
                  out);
  out.set("slo_frac", frac(in_deadline, n), "ratio");
  out.set("refused_frac", frac(rejected + shed, n), "ratio");
  out.set("failed_frac", frac(out.failed, n), "ratio");
  const double lag_p99 = quantile(lag, 0.99);
  out.set("loadgen.lag_ms_p99", lag_p99);
  out.check(lag_p99 <= kMaxLagP99Ms,
            "run invalid: the generator fell behind (p99 submit lag " +
                std::to_string(lag_p99) + " ms)");
  out.note("open loop: " + std::to_string(n) + " requests in " +
           std::to_string(args.seconds) + " s: " + std::to_string(ok) +
           " ok, " + std::to_string(rejected) + " rejected, " +
           std::to_string(shed) + " shed, " + std::to_string(out.failed) +
           " failed");

  if (tracer.enabled()) {
    out.set("serve.queue_wait_ms_p50", median(wait));
    out.set("serve.queue_wait_ms_p99", quantile(wait, 0.99));
    out.set("serve.exec_ms_p50", median(exec));
    for (const char* fam : {"resnet18", "vit_ffn"}) {
      out.set(std::string("serve.predict_err_pct.") + fam,
              predict_err.count(fam) ? median(predict_err.at(fam)) : 0.0);
    }
    out.set("serve.rejected_frac", frac(rejected, n));
    out.set("serve.shed_frac", frac(shed, n));
    out.set("serve.batch_size_mean",
            frac(ok, static_cast<int64_t>(batches.size())));
    out.set("serve.retries", static_cast<double>(retries));
    out.set("serve.redispatched", static_cast<double>(redispatched));
    out.set("shard.sharded_frac", frac(sharded, ok));
    out.set("shard.data_parallel_frac", frac(data_parallel, ok));
    out.set("trace.overhead_pct",
            (median(lat_traced) / median(lat_untraced) - 1.0) * 100.0);

    std::vector<PlanProfile> profiles;
    for (size_t i = 0; i < n_models; ++i) {
      profiles.push_back(replay_profile(
          live.store->plan(live.ids[i], 1), spec.models[i].family,
          spec.models[i].name + "@b1", share[i], pools[i].inputs[0],
          pools[i].outputs[0], kReplayReps, tracer, out));
    }
    profile_metrics(profiles, out);
    write_trace_outputs(args, profiles, tracer);
  }
  live.reset();
  if (!registry_dir.empty()) std::filesystem::remove_all(registry_dir);
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return emit(out, args.trace);
}

ModelSpec ffn(int m, double deadline_ms, int pool) {
  return ModelSpec{
      "vit_ffn", m == 0 ? "vit_ffn-dense" : "vit_ffn-m" + std::to_string(m),
      build_ffn_block(kFfnTokens, kFfnDim, kFfnHidden, m, 11), pool,
      deadline_ms};
}

}  // namespace

int run_vit_ffn_open(const Args& args) {
  OpenSpec spec;
  spec.models.push_back(ffn(0, kVitDeadlineMs, kVitPool));
  spec.models.push_back(ffn(8, kVitDeadlineMs, kVitPool));
  spec.pattern = {0, 1};
  spec.rate = kVitRate;
  spec.tail_q = kVitTailQ;
  return run_open_loop(args, spec);
}

int run_mixed_registry_open(const Args& args) {
  OpenSpec spec;
  Resnet18Options mopt;
  mopt.sparsity_m = 16;
  spec.models.push_back(ModelSpec{"resnet18", "resnet18-m16",
                                  build_resnet18(mopt), kMixedResnetPool,
                                  kMixedResnetDeadlineMs});
  spec.models.push_back(ffn(8, kMixedVitDeadlineMs, kMixedVitPool));
  spec.pattern.assign(static_cast<size_t>(kMixedResnetEvery), 1);
  spec.pattern[0] = 0;
  spec.rate = kMixedRate;
  spec.tail_q = kMixedTailQ;
  spec.registry = true;
  return run_open_loop(args, spec);
}

}  // namespace perfbench
