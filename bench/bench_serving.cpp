// Serving throughput vs SLO: a deterministic Poisson-like request trace
// (seeded via common/rng.hpp) is served through the full runtime —
// serve_trace -> SLO Batcher -> PlanStore -> Dispatcher — while the SLO
// deadline sweeps from tight to loose. Per point we report the deadline
// hit rate, modeled throughput, latency percentiles, and which modeled
// placement the dispatcher chose (batch-fused / sharded single-image /
// data-parallel; the host runs every batch as fused chunks). On ResNet18
// the bench asserts the headline behavior: at the loosest SLO the
// dispatcher serves batch-fused plans at a higher throughput than the
// batch=1 serial baseline, at the tightest it models sharded single
// images below the single-cluster latency, every served output is
// bit-exact with a sequential ExecutionEngine::run, and nothing compiles
// after PlanStore warm-up. Results land in BENCH_serve.json.
//
//   ./bench_serving [--smoke] [--out PATH] [--registry DIR]
//                   [--wallclock] [--overload] [--faults]
//
// --smoke shrinks the models and traces so CI can run the bench in
// seconds; its stdout (the modeled SLO sweep) is pinned byte for byte by
// the golden_bench_serving_smoke ctest. --registry attaches DIR as the PlanStore's artifact tier:
// warm-up plans come from (and freshly compiled ones are published to)
// the registry — a second run against the same DIR warms up with zero
// compiles and zero ISS invocations.
//
// --wallclock appends a wall-clock overload sweep (WallClockServer, real
// threads, steady-clock deadlines): seeded Poisson
// arrivals are paced in wall time at a multiple of the server's modeled
// sustained img/s, and each point reports offered load vs goodput, wall
// latency percentiles, shed/reject rates, and the deadline-miss rate
// among served requests. --overload sweeps 0.5x/1x/2x/4x sustained
// (without it only the 2x point runs); in --smoke the 2x point asserts
// the headline robustness claim — the excess load is shed with typed
// reasons while every admitted-and-served request meets its SLO.
// --faults additionally injects a deterministic transient-exception
// schedule into dispatch execution and asserts the retry ladder absorbs
// it (requests still complete, nothing terminally fails).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <thread>

#include "bench_util.hpp"
#include "exec/engine.hpp"
#include "serve/dispatcher.hpp"
#include "serve/fault.hpp"
#include "serve/wallclock.hpp"
#include "trace/energy_attr.hpp"
#include "trace/metrics.hpp"

using namespace decimate;

namespace {

struct ScenarioRow {
  std::string model;
  double deadline_x_total = 0.0;  // deadline as a multiple of total1
  uint64_t deadline = 0;
  int requests = 0;
  double hit_rate = 0.0;
  double miss_rate = 0.0;  // deadline misses / requests
  double throughput_ipmc = 0.0;  // images per modeled megacycle
  uint64_t p50_latency = 0;
  uint64_t p95_latency = 0;
  uint64_t p99_latency = 0;
  uint64_t p50_wait = 0;  // queue wait (arrival -> dispatch)
  uint64_t p95_wait = 0;
  uint64_t p99_wait = 0;
  uint64_t mean_exec = 0;
  double mean_nj = 0.0;  // modeled energy per request
  std::map<std::string, int> modes;
};

struct ModelReport {
  std::string name;
  uint64_t total1 = 0;          // batch=1 single-cluster cycles
  uint64_t shard_critical = 0;  // single image across all clusters
  double serial_ipmc = 0.0;     // batch=1 serial baseline on the trace
  std::vector<ScenarioRow> rows;
};

uint64_t percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

/// Deterministic Poisson-like arrivals: exponential gaps of the given
/// mean, one fresh random image per request.
std::vector<Request> poisson_trace(int model, const std::vector<int>& shape,
                                   int n, double mean_gap_cycles,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> trace;
  trace.reserve(static_cast<size_t>(n));
  uint64_t t = 0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    t += static_cast<uint64_t>(-mean_gap_cycles * std::log1p(-u));
    trace.push_back(Request{static_cast<uint64_t>(i), model, t,
                            Tensor8::random(shape, rng)});
  }
  return trace;
}

std::vector<Request> copy_trace(const std::vector<Request>& trace) {
  std::vector<Request> out;
  out.reserve(trace.size());
  for (const Request& r : trace) {
    out.push_back(Request{r.id, r.model, r.arrival_cycles, r.input});
  }
  return out;
}

/// Sustained serving rate: images per megacycle between the first
/// dispatch and the last completion. Measuring from the first dispatch
/// (not the first arrival) keeps short traces honest — the initial
/// batch-fill wait is a fixed offset that a long-running server
/// amortizes away, and it is already charged to the latency percentiles.
double throughput_ipmc(const std::vector<Served>& served) {
  uint64_t first = UINT64_MAX, last = 0;
  for (const Served& s : served) {
    first = std::min(first, s.stats.dispatch_cycles);
    last = std::max(last, s.stats.completion_cycles);
  }
  return last > first ? static_cast<double>(served.size()) * 1e6 /
                            static_cast<double>(last - first)
                      : 0.0;
}

/// Sequential reference outputs of a trace, computed once: the SLO sweep
/// serves the same trace at every point, and the reference depends only
/// on the inputs.
std::map<uint64_t, Tensor8> reference_outputs(
    PlanStore& store, const std::vector<Request>& trace) {
  ExecutionEngine engine;
  std::map<uint64_t, Tensor8> refs;
  for (const Request& r : trace) {
    refs.emplace(r.id, engine.run(store.plan(r.model, 1, 1), r.input).output);
  }
  return refs;
}

bool check_bit_exact(const std::map<uint64_t, Tensor8>& refs,
                     const std::vector<Served>& served) {
  for (const Served& s : served) {
    if (!(s.output == refs.at(s.stats.id))) {
      std::cerr << "FAIL: request " << s.stats.id << " ("
                << to_string(s.stats.mode)
                << ") differs from the sequential run\n";
      return false;
    }
  }
  return true;
}

ScenarioRow run_scenario(const std::string& model_name,
                         Dispatcher& dispatcher, PlanStore& store,
                         int num_clusters,
                         const std::map<uint64_t, Tensor8>& refs,
                         const std::vector<Request>& trace, uint64_t total1,
                         double deadline_x, bool& bit_exact) {
  const uint64_t deadline =
      static_cast<uint64_t>(deadline_x * static_cast<double>(total1));
  SloConfig slo;
  slo.deadline_cycles = deadline;
  slo.max_wait_cycles = deadline / 4;
  slo.max_batch = 8;

  const auto served = serve_trace(dispatcher, slo, copy_trace(trace));
  bit_exact = bit_exact && check_bit_exact(refs, served);

  ScenarioRow row;
  row.model = model_name;
  row.deadline_x_total = deadline_x;
  row.deadline = deadline;
  row.requests = static_cast<int>(served.size());
  row.throughput_ipmc = throughput_ipmc(served);
  std::vector<uint64_t> latencies;
  std::vector<uint64_t> waits;
  uint64_t exec_sum = 0;
  int hits = 0;
  for (const Served& s : served) {
    latencies.push_back(s.stats.latency_cycles());
    waits.push_back(s.stats.queue_wait_cycles());
    exec_sum += s.stats.exec_cycles();
    hits += s.stats.deadline_hit ? 1 : 0;
    ++row.modes[to_string(s.stats.mode)];
  }
  row.hit_rate = static_cast<double>(hits) / static_cast<double>(served.size());
  row.miss_rate = 1.0 - row.hit_rate;
  row.p50_latency = percentile(latencies, 0.5);
  row.p95_latency = percentile(latencies, 0.95);
  row.p99_latency = percentile(latencies, 0.99);
  row.p50_wait = percentile(waits, 0.5);
  row.p95_wait = percentile(waits, 0.95);
  row.p99_wait = percentile(waits, 0.99);
  row.mean_exec = exec_sum / served.size();
  // modeled joules from the cycle reports of the plans this scenario ran;
  // every plan is already warm, so this never compiles
  row.mean_nj = trace::attribute_energy(served, store, num_clusters)
                    .mean_nj_per_request();
  return row;
}

// --- wall-clock overload sweep ----------------------------------------------

struct WallPoint {
  double mult = 0.0;          // offered load as a multiple of sustained
  double offered_ips = 0.0;   // img/s submitted
  double goodput_ips = 0.0;   // img/s served kOk
  int requests = 0;
  int ok = 0;
  int shed = 0;
  int rejected = 0;
  int failed = 0;
  int redispatched = 0;
  double shed_rate = 0.0;
  double reject_rate = 0.0;
  double miss_rate = 0.0;     // deadline misses / served kOk
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

struct WallReport {
  double sustained_ips = 0.0;
  double ns_per_cycle = 0.0;
  uint64_t deadline_ns = 0;
  bool faults = false;
  uint64_t faults_injected = 0;
  std::vector<WallPoint> points;
};

/// One overload point: pace `n` seeded-Poisson arrivals in wall time at
/// `mult` x the server's sustained rate while serve() runs on its own
/// thread, then score the typed outcomes.
WallPoint run_wall_point(PlanStore& store, const DispatchConfig& dcfg,
                         const WallClockConfig& wcfg, int model,
                         const std::vector<int>& shape, int n, double mult,
                         uint64_t seed, bool& bit_exact) {
  WallClockServer server(store, dcfg, wcfg);
  server.warm(model);
  const double sustained = server.sustained_img_per_s(model);
  const double rate = mult * sustained;
  const double mean_gap_ns = 1e9 / rate;

  Rng rng(seed);
  std::vector<Tensor8> inputs;
  std::vector<uint64_t> arrivals;  // target arrival offsets, ns
  inputs.reserve(static_cast<size_t>(n));
  uint64_t t = 0;
  for (int i = 0; i < n; ++i) {
    t += static_cast<uint64_t>(-mean_gap_ns * std::log1p(-rng.uniform()));
    arrivals.push_back(t);
    inputs.push_back(Tensor8::random(shape, rng));
  }

  std::vector<WallServed> done;
  std::thread server_thread([&] { done = server.serve(); });
  const auto epoch = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        epoch + std::chrono::nanoseconds(arrivals[static_cast<size_t>(i)]));
    WallRequest r;
    r.id = static_cast<uint64_t>(i);
    r.model = model;
    r.input = inputs[static_cast<size_t>(i)];
    server.submit(std::move(r));
  }
  server.close();
  server_thread.join();

  WallPoint pt;
  pt.mult = mult;
  pt.offered_ips = rate;
  pt.requests = n;
  std::vector<uint64_t> latencies;
  uint64_t first_arrival = UINT64_MAX, last_completion = 0;
  int misses = 0;
  ExecutionEngine engine;
  const CompiledPlan& single = store.plan(model, 1, 1);
  for (const WallServed& w : done) {
    switch (w.outcome) {
      case ServeOutcome::kOk: {
        ++pt.ok;
        pt.redispatched += w.redispatched ? 1 : 0;
        misses += w.deadline_hit ? 0 : 1;
        latencies.push_back(w.latency_ns());
        first_arrival = std::min(first_arrival, w.arrival_ns);
        last_completion = std::max(last_completion, w.completion_ns);
        const Tensor8& in = inputs[static_cast<size_t>(w.id)];
        if (!(w.output == engine.run(single, in).output)) {
          std::cerr << "FAIL: wall-clock request " << w.id
                    << " differs from the sequential run\n";
          bit_exact = false;
        }
        break;
      }
      case ServeOutcome::kShed: ++pt.shed; break;
      case ServeOutcome::kRejected: ++pt.rejected; break;
      case ServeOutcome::kFailed: ++pt.failed; break;
    }
  }
  pt.shed_rate = static_cast<double>(pt.shed) / n;
  pt.reject_rate = static_cast<double>(pt.rejected) / n;
  pt.miss_rate = pt.ok > 0 ? static_cast<double>(misses) / pt.ok : 0.0;
  pt.p50_ns = percentile(latencies, 0.5);
  pt.p99_ns = percentile(latencies, 0.99);
  pt.goodput_ips =
      last_completion > first_arrival
          ? static_cast<double>(pt.ok) * 1e9 /
                static_cast<double>(last_completion - first_arrival)
          : 0.0;
  return pt;
}

WallReport run_wall_sweep(PlanStore& store, int model,
                          const std::vector<int>& shape, int clusters,
                          bool smoke, bool overload, bool faults,
                          bool& bit_exact, bool& wall_ok) {
  DispatchConfig dcfg;
  dcfg.num_clusters = clusters;
  dcfg.fused_batches = {1, 2, 4, 8};

  WallClockConfig wcfg;
  wcfg.deadline_ns = 150'000'000;  // 150 ms: generous per-request, binding
                                   // in aggregate once the queue backs up
  wcfg.max_batch = 8;
  wcfg.admission.max_queue_depth = smoke ? 8 : 16;
  wcfg.watchdog_floor_ns = 20'000'000;  // recovery still fits the SLO

  // deterministic transient-exception schedule: every 5th dispatch
  // (phase 2) throws before executing; retry-with-backoff must absorb it
  fault::FaultInjector injector(0xc4a05);
  if (faults) {
    fault::SitePlan plan;
    plan.kind = fault::Kind::kException;
    plan.period = 5;
    plan.phase = 2;
    injector.set_plan(fault::Site::kDispatchExec, plan);
    fault::FaultInjector::install(&injector);
  }
  const uint64_t retries_before =
      metrics::registry().counter("serve.wall.retries").value();

  WallReport report;
  report.deadline_ns = wcfg.deadline_ns;
  report.faults = faults;
  const int n = smoke ? 48 : 128;
  const std::vector<double> mults =
      overload ? std::vector<double>{0.5, 1.0, 2.0, 4.0}
               : std::vector<double>{2.0};
  for (size_t i = 0; i < mults.size(); ++i) {
    report.points.push_back(run_wall_point(store, dcfg, wcfg, model, shape, n,
                                           mults[i],
                                           0xbe7c + static_cast<uint64_t>(i),
                                           bit_exact));
  }
  {
    // sustained/calibration snapshot from a fresh server (cheap: every
    // plan is warm)
    WallClockServer probe(store, dcfg, wcfg);
    probe.warm(model);
    report.sustained_ips = probe.sustained_img_per_s(model);
    report.ns_per_cycle = probe.ns_per_cycle(model);
  }
  if (faults) {
    fault::FaultInjector::install(nullptr);
    report.faults_injected = injector.injected(fault::Site::kDispatchExec);
    if (report.faults_injected == 0) {
      std::cerr << "FAIL: --faults injected nothing\n";
      wall_ok = false;
    }
    if (metrics::registry().counter("serve.wall.retries").value() ==
        retries_before) {
      std::cerr << "FAIL: injected faults never exercised the retry ladder\n";
      wall_ok = false;
    }
  }

  for (const WallPoint& pt : report.points) {
    if (pt.failed != 0) {
      std::cerr << "FAIL: " << pt.failed << " requests terminally failed at "
                << pt.mult << "x (every fault class must recover or shed)\n";
      wall_ok = false;
    }
    if (pt.ok + pt.shed + pt.rejected + pt.failed != pt.requests) {
      std::cerr << "FAIL: outcomes do not cover the trace at " << pt.mult
                << "x\n";
      wall_ok = false;
    }
  }
  if (smoke) {
    // the headline robustness claim, asserted at 2x sustained: excess
    // load sheds with typed reasons while every served request meets its
    // deadline
    for (const WallPoint& pt : report.points) {
      if (pt.mult != 2.0) continue;
      if (pt.miss_rate != 0.0) {
        std::cerr << "FAIL: deadline misses among served requests at 2x ("
                  << pt.miss_rate << ")\n";
        wall_ok = false;
      }
      if (pt.shed + pt.rejected == 0) {
        std::cerr << "FAIL: 2x overload shed/rejected nothing\n";
        wall_ok = false;
      }
    }
  }
  return report;
}

void emit_json(std::ostream& os, bool smoke, int clusters,
               const std::vector<ModelReport>& reports, int compiles_warm,
               int compiles_total, int registry_loads, bool bit_exact,
               const WallReport* wall) {
  os << "{\n  \"bench\": \"serving\",\n  \"smoke\": "
     << (smoke ? "true" : "false") << ",\n  \"num_clusters\": " << clusters
     << ",\n  \"compiles_at_warmup\": " << compiles_warm
     << ",\n  \"compiles_after_serving\": " << compiles_total
     << ",\n  \"registry_loads\": " << registry_loads
     << ",\n  \"bit_exact\": " << (bit_exact ? "true" : "false")
     << ",\n  \"models\": [\n";
  for (size_t mi = 0; mi < reports.size(); ++mi) {
    const ModelReport& m = reports[mi];
    os << "    {\"model\": \"" << m.name << "\", \"total_cycles_batch1\": "
       << m.total1 << ", \"shard_critical_cycles\": " << m.shard_critical
       << ", \"serial_throughput_ipmc\": " << m.serial_ipmc
       << ",\n     \"slo_sweep\": [\n";
    for (size_t i = 0; i < m.rows.size(); ++i) {
      const ScenarioRow& r = m.rows[i];
      os << "       {\"deadline_x_total\": " << r.deadline_x_total
         << ", \"deadline_cycles\": " << r.deadline << ", \"requests\": "
         << r.requests << ", \"hit_rate\": " << r.hit_rate
         << ", \"deadline_miss_rate\": " << r.miss_rate
         << ", \"throughput_ipmc\": " << r.throughput_ipmc
         << ", \"p50_latency\": " << r.p50_latency << ", \"p95_latency\": "
         << r.p95_latency << ", \"p99_latency\": " << r.p99_latency
         << ", \"p50_wait\": " << r.p50_wait << ", \"p95_wait\": "
         << r.p95_wait << ", \"p99_wait\": " << r.p99_wait
         << ", \"mean_exec_cycles\": " << r.mean_exec
         << ", \"mean_nj_per_request\": " << r.mean_nj << ", \"modes\": {";
      bool first = true;
      for (const auto& [mode, count] : r.modes) {
        os << (first ? "" : ", ") << "\"" << mode << "\": " << count;
        first = false;
      }
      os << "}}" << (i + 1 < m.rows.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (mi + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (wall != nullptr) {
    os << ",\n  \"wallclock\": {\n    \"sustained_img_per_s\": "
       << wall->sustained_ips << ",\n    \"ns_per_cycle\": "
       << wall->ns_per_cycle << ",\n    \"deadline_ns\": "
       << wall->deadline_ns << ",\n    \"faults\": "
       << (wall->faults ? "true" : "false")
       << ",\n    \"faults_injected\": " << wall->faults_injected
       << ",\n    \"overload_sweep\": [\n";
    for (size_t i = 0; i < wall->points.size(); ++i) {
      const WallPoint& p = wall->points[i];
      os << "      {\"offered_x_sustained\": " << p.mult
         << ", \"offered_img_per_s\": " << p.offered_ips
         << ", \"goodput_img_per_s\": " << p.goodput_ips
         << ", \"requests\": " << p.requests << ", \"ok\": " << p.ok
         << ", \"shed\": " << p.shed << ", \"rejected\": " << p.rejected
         << ", \"failed\": " << p.failed << ", \"redispatched\": "
         << p.redispatched << ", \"shed_rate\": " << p.shed_rate
         << ", \"reject_rate\": " << p.reject_rate
         << ", \"deadline_miss_rate\": " << p.miss_rate
         << ", \"p50_latency_ns\": " << p.p50_ns
         << ", \"p99_latency_ns\": " << p.p99_ns << "}"
         << (i + 1 < wall->points.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }";
  }
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool wallclock = false;
  bool overload = false;
  bool faults = false;
  std::string out_path = "BENCH_serve.json";
  std::string registry_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--wallclock") == 0) {
      wallclock = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--registry") == 0 && i + 1 < argc) {
      registry_dir = argv[++i];
    } else {
      std::cerr << "usage: bench_serving [--smoke] [--out PATH] "
                   "[--registry DIR] [--wallclock] [--overload] [--faults]\n";
      return 1;
    }
  }

  constexpr int kClusters = 4;
  CompileOptions copt;
  copt.enable_isa = true;
  PlanStore store(copt);
  if (!registry_dir.empty()) store.attach_registry(registry_dir);
  DispatchConfig cfg;
  cfg.num_clusters = kClusters;
  cfg.fused_batches = {1, 2, 4, 8};
  Dispatcher dispatcher(store, cfg);
  // batch=1 serial baseline: one cluster, no fusion — the deployment the
  // paper's per-layer numbers describe
  DispatchConfig serial_cfg;
  serial_cfg.num_clusters = 1;
  serial_cfg.fused_batches = {1};
  Dispatcher serial(store, serial_cfg);

  // The asserted headline model is ResNet18 at 16x16 input: there the
  // sparse conv stack is weight-DMA-bound, the regime where batch fusion
  // buys pipelined cycles and the loose-SLO story holds. At 32x32 the
  // same sparse network is compute-bound — fusion's weight-DMA savings
  // hide behind compute and the dispatcher (correctly) keeps preferring
  // sharded/data-parallel placements at every SLO; the full bench serves
  // that geometry too, assertion-free, to document the crossover.
  Resnet18Options mopt;
  mopt.sparsity_m = 8;
  mopt.input_hw = 16;
  const Graph resnet = build_resnet18(mopt);
  Resnet18Options mopt32 = mopt;
  mopt32.input_hw = 32;
  const Graph resnet32 = build_resnet18(mopt32);
  const int tokens = smoke ? 96 : 196;
  const int d = smoke ? 128 : 384;
  const int hidden = smoke ? 512 : 1536;
  const Graph ffn = build_ffn_block(tokens, d, hidden, 8, 11);

  struct ModelSpec {
    std::string name;
    const Graph* graph;
    uint64_t seed;
    bool assert_headline;
  };
  std::vector<ModelSpec> specs = {{"resnet18", &resnet, 101, true},
                                  {"vit_ffn", &ffn, 102, false}};
  if (!smoke) specs.push_back({"resnet18_hw32", &resnet32, 103, false});
  const std::vector<double> deadline_sweep = {0.6, 1.0, 2.0, 4.0, 8.0, 40.0};
  const int n_requests = smoke ? 16 : 48;

  // --- warm-up: after this, serving must never compile ----------------------
  std::vector<int> ids;
  for (const ModelSpec& spec : specs) {
    const int id = store.add_model(*spec.graph);
    dispatcher.warm(id);
    serial.warm(id);
    ids.push_back(id);
  }
  const int compiles_warm = store.compiles();

  std::vector<ModelReport> reports;
  bool bit_exact = true;
  bool modes_ok = true;
  for (size_t si = 0; si < specs.size(); ++si) {
    const ModelSpec& spec = specs[si];
    const int id = ids[si];
    ModelReport report;
    report.name = spec.name;
    report.total1 = store.plan(id, 1, 1).total_cycles;
    report.shard_critical =
        dispatcher
            .evaluate(id, 1, {0}, 0, SloConfig{0, UINT64_MAX, 1})[1]
            .completion_cycles[0];

    // offered load ~2 requests per single-image latency: above the
    // one-cluster service rate (so loose SLOs fill batches and the serial
    // baseline saturates) but below the sharded rate (so tight SLOs stay
    // stable instead of backing up into deep, always-late batches)
    const auto trace =
        poisson_trace(id, spec.graph->node(0).out_shape, n_requests,
                      static_cast<double>(report.total1) / 2.0, spec.seed);

    const auto refs = reference_outputs(store, trace);
    const auto serial_served =
        serve_trace(serial, SloConfig{0, UINT64_MAX, 1}, copy_trace(trace));
    bit_exact = bit_exact && check_bit_exact(refs, serial_served);
    report.serial_ipmc = throughput_ipmc(serial_served);

    for (const double dx : deadline_sweep) {
      report.rows.push_back(run_scenario(spec.name, dispatcher, store,
                                         kClusters, refs, trace, report.total1,
                                         dx, bit_exact));
    }

    if (spec.assert_headline) {
      const ScenarioRow& tight = report.rows.front();
      const ScenarioRow& loose = report.rows.back();
      if (loose.modes.count("batch_fused") == 0 ||
          loose.modes.at("batch_fused") < n_requests / 2) {
        std::cerr << "FAIL: loose SLO should serve batch-fused plans\n";
        modes_ok = false;
      }
      if (loose.throughput_ipmc <= report.serial_ipmc) {
        std::cerr << "FAIL: loose-SLO throughput (" << loose.throughput_ipmc
                  << " img/Mcyc) does not beat the batch=1 serial baseline ("
                  << report.serial_ipmc << ")\n";
        modes_ok = false;
      }
      if (tight.modes.count("sharded_single") == 0 ||
          tight.modes.at("sharded_single") < n_requests / 2) {
        std::cerr << "FAIL: tight SLO should shard single images\n";
        modes_ok = false;
      }
      if (tight.mean_exec >= report.total1) {
        std::cerr << "FAIL: tight-SLO exec latency (" << tight.mean_exec
                  << ") does not beat the single-cluster total ("
                  << report.total1 << ")\n";
        modes_ok = false;
      }
    }
    reports.push_back(std::move(report));
  }

  const int compiles_total = store.compiles();

  Table t({"model", "SLO x total", "hit%", "img/Mcyc", "p95 lat Mcyc",
           "p99 lat Mcyc", "p95 wait Mcyc", "uJ/img", "fused", "sharded",
           "data-par"});
  for (const ModelReport& m : reports) {
    for (const ScenarioRow& r : m.rows) {
      const auto count = [&](const char* k) {
        const auto it = r.modes.find(k);
        return std::to_string(it == r.modes.end() ? 0 : it->second);
      };
      t.add_row({m.name, Table::num(r.deadline_x_total, 1),
                 Table::num(100.0 * r.hit_rate, 0),
                 Table::num(r.throughput_ipmc, 2),
                 Table::num(static_cast<double>(r.p95_latency) / 1e6, 2),
                 Table::num(static_cast<double>(r.p99_latency) / 1e6, 2),
                 Table::num(static_cast<double>(r.p95_wait) / 1e6, 2),
                 Table::num(r.mean_nj / 1e3, 1), count("batch_fused"),
                 count("sharded_single"), count("data_parallel")});
    }
  }
  std::cout << t;
  for (const ModelReport& m : reports) {
    std::cout << m.name << ": serial baseline " << Table::num(m.serial_ipmc, 2)
              << " img/Mcyc, total1 " << m.total1 << " cyc, shard critical "
              << m.shard_critical << " cyc\n";
  }
  std::cout << "compiles: " << compiles_warm << " at warm-up, "
            << compiles_total << " after serving\n";
  if (!registry_dir.empty()) {
    std::cout << "registry " << registry_dir << ": " << store.registry_loads()
              << " plans loaded, " << compiles_total << " compiled+published\n";
  }

  bool ok = bit_exact && modes_ok;
  if (compiles_total != compiles_warm) {
    std::cerr << "FAIL: serving recompiled after PlanStore warm-up ("
              << compiles_warm << " -> " << compiles_total << ")\n";
    ok = false;
  }

  // --- wall-clock overload sweep (real threads, steady-clock deadlines) -----
  WallReport wall;
  bool wall_ok = true;
  if (wallclock) {
    const int id = ids[0];  // the headline ResNet18 geometry
    wall = run_wall_sweep(store, id, specs[0].graph->node(0).out_shape,
                          kClusters, smoke, overload, faults, bit_exact,
                          wall_ok);
    Table wt({"offered x", "offered img/s", "goodput img/s", "ok", "shed",
              "rej", "fail", "redisp", "miss%", "p50 ms", "p99 ms"});
    for (const WallPoint& p : wall.points) {
      wt.add_row({Table::num(p.mult, 1), Table::num(p.offered_ips, 0),
                  Table::num(p.goodput_ips, 0), std::to_string(p.ok),
                  std::to_string(p.shed), std::to_string(p.rejected),
                  std::to_string(p.failed), std::to_string(p.redispatched),
                  Table::num(100.0 * p.miss_rate, 1),
                  Table::num(static_cast<double>(p.p50_ns) / 1e6, 2),
                  Table::num(static_cast<double>(p.p99_ns) / 1e6, 2)});
    }
    std::cout << "\nwall-clock overload sweep (sustained "
              << Table::num(wall.sustained_ips, 0) << " img/s, "
              << Table::num(wall.ns_per_cycle, 3) << " ns/cycle, deadline "
              << wall.deadline_ns / 1'000'000 << " ms"
              << (faults ? ", transient faults injected" : "") << ")\n"
              << wt;
    if (store.compiles() != compiles_total) {
      std::cerr << "FAIL: the wall-clock sweep recompiled plans ("
                << compiles_total << " -> " << store.compiles() << ")\n";
      wall_ok = false;
    }
    ok = ok && wall_ok && bit_exact;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  emit_json(out, smoke, kClusters, reports, compiles_warm, compiles_total,
            store.registry_loads(), bit_exact, wallclock ? &wall : nullptr);
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
