#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <span>
#include <sstream>

#include "common/table.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "exec/node_exec.hpp"
#include "nn/host_kernel_instances.hpp"
#include "trace/metrics.hpp"
#include "verify/verify.hpp"

namespace perfbench {

using namespace decimate;

namespace {

// The metric names BENCHMARK.json lists, in its order. An untraced run's
// JSON carries exactly kEndToEnd, a traced run's exactly kPerLayer; the
// report printed above the JSON line carries everything measured.
struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"throughput_img_s", "img/s"}, {"goodput_img_s", "img/s"},
    {"latency_p50_ms", "ms"},      {"latency_tail_ms", "ms"},
    {"slo_frac", "ratio"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},         {"mcu_mcycles_per_img", "Mcycles"},
};

const MetricDef kPerLayer[] = {
    {"refused_frac", "ratio"},
    {"failed_frac", "ratio"},
    {"latency_samples", "count"},
    {"compiler.compile_ms", "ms"},
    {"compiler.plans", "count"},
    {"sim.iss_tiles", "count"},
    {"verify.ms", "ms"},
    {"artifact.load_ms", "ms"},
    {"artifact.bytes", "bytes"},
    {"exec.vec_ms_per_img", "ms"},
    {"exec.ns_per_mcu_cycle.resnet18", "ns/cycle"},
    {"exec.ns_per_mcu_cycle.vit_ffn", "ns/cycle"},
    {"nn.dense_conv.ns_per_mac", "ns/MAC"},
    {"nn.sparse_conv.ns_per_mac", "ns/MAC"},
    {"nn.dense_fc.ns_per_mac", "ns/MAC"},
    {"nn.sparse_fc.ns_per_mac", "ns/MAC"},
    {"nn.dense_conv.share", "ratio"},
    {"nn.sparse_conv.share", "ratio"},
    {"nn.dense_fc.share", "ratio"},
    {"nn.sparse_fc.share", "ratio"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.predict_err_pct.resnet18", "%"},
    {"serve.predict_err_pct.vit_ffn", "%"},
    {"serve.rejected_frac", "ratio"},
    {"serve.shed_frac", "ratio"},
    {"serve.batch_size_mean", "count"},
    {"serve.retries", "count"},
    {"serve.redispatched", "count"},
    {"shard.sharded_frac", "ratio"},
    {"shard.data_parallel_frac", "ratio"},
    {"loadgen.lag_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
};

std::string unit_of(const std::string& name) {
  for (const auto& list : {std::span<const MetricDef>(kEndToEnd),
                           std::span<const MetricDef>(kPerLayer)}) {
    for (const MetricDef& d : list) {
      if (name == d.name) return d.unit;
    }
  }
  return "";
}

// Host kernel family name -> the nn.<family> metric prefix.
const std::map<std::string, std::string>& family_metric() {
  static const std::map<std::string, std::string> m = {
      {host_impl_name(HostImpl::kDenseConv), "nn.dense_conv"},
      {host_impl_name(HostImpl::kSparseConv), "nn.sparse_conv"},
      {host_impl_name(HostImpl::kDenseFc), "nn.dense_fc"},
      {host_impl_name(HostImpl::kSparseFc), "nn.sparse_fc"},
  };
  return m;
}

thread_local int t_current_span = -1;

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Outcome::set(const std::string& name, double value, std::string unit) {
  if (unit.empty()) unit = unit_of(name);
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

void latency_metrics(const std::vector<double>& ms, double q,
                     const std::string& what, Outcome& out) {
  const double beyond = static_cast<double>(ms.size()) * (1.0 - q);
  if (beyond < 10.0 - 1e-9) {
    out.note("WARNING: fewer than 10 samples beyond p" + json_number(q * 100) +
             "; run longer for a meaningful tail");
  }
  out.set("latency_p50_ms", median(ms), "ms");
  out.set("latency_p90_ms", quantile(ms, 0.90), "ms");
  out.set("latency_p99_ms", quantile(ms, 0.99), "ms");
  out.set("latency_tail_ms", quantile(ms, q), "ms");
  out.set("latency_samples", static_cast<double>(ms.size()), "count");
  out.note("latency: " + std::to_string(ms.size()) + " " + what +
           "; latency_tail_ms is p" + json_number(q * 100) + ", with " +
           json_number(std::floor(beyond)) + " samples beyond it");
}

int emit(const Outcome& out, bool trace) {
  Outcome res = out;
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : res.metrics) by_name[m.name] = &m;

  Table t({"metric", "value", "unit"});
  for (const Metric& m : res.metrics) {
    std::ostringstream v;
    v << std::setprecision(6) << m.value;
    t.add_row({m.name, v.str(), m.unit});
  }
  std::cout << t;
  for (const std::string& n : res.notes) std::cout << "note: " << n << "\n";

  std::ostringstream js;
  js << "{";
  bool first = true;
  const auto add = [&](const MetricDef& d) {
    const std::string name = d.name;
    const auto it = by_name.find(name);
    double v = 0.0;
    if (it == by_name.end()) {
      res.errors.push_back("metric not measured: " + name);
    } else {
      v = it->second->value;
      if (it->second->unit != d.unit) {
        res.errors.push_back("metric " + name + " measured in " +
                             it->second->unit + ", declared in " + d.unit);
      }
    }
    if (!std::isfinite(v)) {
      res.errors.push_back("metric not finite: " + name);
      v = 0.0;
    }
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(v) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) add(d);
  } else {
    for (const MetricDef& d : kEndToEnd) add(d);
  }
  js << "}";

  const bool correct = res.errors.empty() && res.failed == 0;
  for (const std::string& e : res.errors) std::cerr << "FAIL: " << e << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": " << js.str()
            << "}" << std::endl;
  return correct ? 0 : 1;
}

// --- Tracer -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& t, const char* name, uint64_t id) {
  if (!t.active()) return;
  t_ = &t;
  saved_parent_ = t_current_span;
  idx_ = t.open(name, id, t_current_span);
  t_current_span = idx_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->close(idx_);
  t_current_span = saved_parent_;
}

void Tracer::Scope::rename(const char* name) {
  if (t_ != nullptr) t_->rename(idx_, name);
}

int Tracer::open(const char* name, uint64_t id, int parent) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  spans_.back().start_ns = now_ns();
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int idx) {
  const uint64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(idx)].end_ns = t;
}

void Tracer::rename(int idx, const char* name) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(idx)].name = name;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations_ms(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << json_number(s.start_ns / 1e3)
       << ", \"dur\": " << json_number((s.end_ns - s.start_ns) / 1e3)
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

// --- oracle -----------------------------------------------------------------

OraclePool make_oracle(const Graph& graph, int size, uint64_t seed) {
  OraclePool pool;
  Rng rng(seed);
  for (int i = 0; i < size; ++i) {
    pool.inputs.push_back(Tensor8::random(graph.node(0).out_shape, rng));
  }
  // The scalar reference ops read only the graph's dense weights, so any
  // plan of the graph yields the same oracle; a default compile keeps the
  // oracle independent of the options the workload serves with.
  Compiler compiler{CompileOptions{}};
  const CompiledPlan plan = compiler.compile(graph);
  ExecutionEngine ref;
  ref.set_use_host_kernels(false);
  BatchRun run = ref.run_batch(plan, pool.inputs);
  for (NetworkRun& r : run.runs) pool.outputs.push_back(std::move(r.output));
  return pool;
}

// --- replay profile ---------------------------------------------------------

double PlanProfile::total_ns() const {
  double sum = 0.0;
  for (const StepRow& r : rows) sum += r.ns;
  return sum;
}

PlanProfile replay_profile(const CompiledPlan& plan, const std::string& model,
                           const std::string& name, double weight,
                           const Tensor8& input, const Tensor8& expected,
                           int reps, Tracer& tracer, Outcome& out) {
  const Graph& graph = *plan.graph;
  ExecutionEngine engine;
  const Tensor8 engine_out = engine.run(plan, input).output;
  out.check(engine_out == expected,
            name + ": ExecutionEngine::run differs from the oracle");

  std::map<std::string, uint64_t> expected_calls;
  std::map<std::string, uint64_t> before;
  for (const PlanStep& step : plan.steps) {
    if (is_gemm(graph.node(step.node_id).op)) {
      const std::string fam = host_impl_name(step.host.impl);
      expected_calls[fam] += static_cast<uint64_t>(reps);
      before[fam] = counter("exec.kernel." + fam);
    }
  }

  const size_t n_steps = plan.steps.size();
  std::vector<std::vector<double>> step_ns(n_steps);
  Tensor8 replayed = input;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Tensor8> outputs(static_cast<size_t>(graph.size()));
    std::vector<const Tensor8*> values(static_cast<size_t>(graph.size()),
                                       nullptr);
    values[0] = &input;
    for (size_t i = 0; i < n_steps; ++i) {
      const PlanStep& step = plan.steps[i];
      const Node& node = graph.node(step.node_id);
      Tensor8& o = outputs[static_cast<size_t>(step.node_id)];
      const Tensor8& in0 = *values[static_cast<size_t>(node.inputs.at(0))];
      const Tracer::Scope span(tracer, node.name.c_str(), i);
      const uint64_t t0 = now_ns();
      switch (node.op) {
        case OpType::kConv2d:
        case OpType::kFc:
          exec_gemm_node_host(step, node, in0, nullptr, true, o);
          break;
        case OpType::kMatmul:
          exec_gemm_node_host(step, node, in0,
                              values[static_cast<size_t>(node.inputs.at(1))],
                              true, o);
          break;
        default: {
          std::vector<const Tensor8*> ins;
          for (const int j : node.inputs) {
            ins.push_back(values[static_cast<size_t>(j)]);
          }
          exec_vec_node_ref(node, ins, o);
          break;
        }
      }
      step_ns[i].push_back(static_cast<double>(now_ns() - t0));
      values[static_cast<size_t>(step.node_id)] = &o;
    }
    if (n_steps > 0) replayed = std::move(outputs.back());
  }
  out.check(replayed == engine_out,
            name + ": step-by-step replay differs from ExecutionEngine::run");
  for (const auto& [fam, calls] : expected_calls) {
    const uint64_t moved = counter("exec.kernel." + fam) - before[fam];
    out.check(moved == calls, name + ": exec.kernel." + fam + " moved by " +
                                  std::to_string(moved) + ", replay ran " +
                                  std::to_string(calls));
  }

  PlanProfile prof;
  prof.model = model;
  prof.plan = name;
  prof.weight = weight;
  prof.plan_cycles = plan.total_cycles;
  for (size_t i = 0; i < n_steps; ++i) {
    const PlanStep& step = plan.steps[i];
    const Node& node = graph.node(step.node_id);
    StepRow row;
    row.layer = node.name;
    row.gemm = is_gemm(node.op);
    row.family = row.gemm ? host_impl_name(step.host.impl) : op_name(node.op);
    row.instance = row.gemm ? host_instance_name(step.host) : "-";
    row.macs = step.report.macs;
    row.cycles = step.report.total_cycles;
    row.ns = median(step_ns[i]);
    prof.rows.push_back(std::move(row));
  }
  return prof;
}

void profile_metrics(const std::vector<PlanProfile>& profiles, Outcome& out) {
  std::map<std::string, double> fam_ns, fam_macs;
  double total_ns = 0.0, vec_ns = 0.0;
  std::map<std::string, double> model_ns, model_cycles;
  for (const PlanProfile& p : profiles) {
    for (const StepRow& r : p.rows) {
      total_ns += p.weight * r.ns;
      if (!r.gemm) {
        vec_ns += p.weight * r.ns;
        continue;
      }
      fam_ns[r.family] += p.weight * r.ns;
      fam_macs[r.family] += p.weight * static_cast<double>(r.macs);
    }
    model_ns[p.model] += p.weight * p.total_ns();
    model_cycles[p.model] += p.weight * static_cast<double>(p.plan_cycles);
  }
  for (const auto& [fam, prefix] : family_metric()) {
    const double ns = fam_ns.count(fam) ? fam_ns.at(fam) : 0.0;
    const double macs = fam_macs.count(fam) ? fam_macs.at(fam) : 0.0;
    out.set(prefix + ".ns_per_mac", macs > 0 ? ns / macs : 0.0, "ns/MAC");
    out.set(prefix + ".share", total_ns > 0 ? ns / total_ns : 0.0, "ratio");
  }
  out.set("exec.vec_ms_per_img", vec_ns / 1e6, "ms");
  for (const char* model : {"resnet18", "vit_ffn"}) {
    const double cyc = model_cycles.count(model) ? model_cycles.at(model) : 0;
    out.set(std::string("exec.ns_per_mcu_cycle.") + model,
            cyc > 0 ? model_ns.at(model) / cyc : 0.0, "ns/cycle");
  }
}

void write_trace_outputs(const Args& args,
                         const std::vector<PlanProfile>& profiles,
                         const Tracer& tracer) {
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const std::string path = stem + ".profile.tsv";
  Table t({"plan", "layer", "family", "instance", "MACs", "cycles", "host us",
           "ns/MAC", "ns/cycle"});
  std::ofstream tsv(path);
  tsv << "plan\tlayer\tfamily\tinstance\tmacs\tmodeled_cycles\thost_ns\t"
         "ns_per_mac\tns_per_cycle\n";
  for (const PlanProfile& p : profiles) {
    for (const StepRow& r : p.rows) {
      const double per_mac = r.macs > 0 ? r.ns / static_cast<double>(r.macs)
                                        : 0.0;
      const double per_cyc =
          r.cycles > 0 ? r.ns / static_cast<double>(r.cycles) : 0.0;
      t.add_row({p.plan, r.layer, r.family, r.instance,
                 std::to_string(r.macs), std::to_string(r.cycles),
                 Table::num(r.ns / 1e3, 1), Table::num(per_mac, 4),
                 Table::num(per_cyc, 3)});
      tsv << p.plan << "\t" << r.layer << "\t" << r.family << "\t"
          << r.instance << "\t" << r.macs << "\t" << r.cycles << "\t"
          << json_number(r.ns) << "\t" << json_number(per_mac) << "\t"
          << json_number(per_cyc) << "\n";
    }
  }
  std::cout << "per-step replay profile (median of replays, one image):\n"
            << t;
  if (!tsv) std::cerr << "warning: could not write " << path << "\n";
  if (!tracer.write_json(stem + ".trace.json")) {
    std::cerr << "warning: could not write " << stem << ".trace.json\n";
  }
}

bool is_gemm(OpType op) {
  return op == OpType::kConv2d || op == OpType::kFc || op == OpType::kMatmul;
}

void warm_plan(PlanStore& store, Tracer& tracer, int model, int batch,
               int clusters) {
  Tracer::Scope span(tracer, "serve.plan_hit");
  const int compiles = store.compiles();
  const int loads = store.registry_loads();
  store.plan(model, batch, clusters);
  if (store.compiles() != compiles) {
    span.rename("compiler.compile");
  } else if (store.registry_loads() != loads) {
    span.rename("artifact.load");
  }
}

void SetupSampler::sample(int reps, const std::string& when) {
  std::ostringstream list;
  for (int r = 0; r < reps; ++r) {
    const uint64_t misses = counter("exec.tile_cache.misses");
    const uint64_t t0 = now_ns();
    const SetupCounts c = fn_();
    secs_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    list << " " << std::setprecision(4) << secs_.back();
    const uint64_t moved = counter("exec.tile_cache.misses") - misses;
    out_.check(moved == c.iss_tiles,
               "exec.tile_cache.misses moved by " + std::to_string(moved) +
                   " during setup but the store's cache missed " +
                   std::to_string(c.iss_tiles) + " tiles");
    if (secs_.size() == 1) {
      first_ = c;
    } else {
      out_.check(c.plans == first_.plans && c.iss_tiles == first_.iss_tiles &&
                     c.registry_loads == first_.registry_loads,
                 "setup repetition " + std::to_string(secs_.size() - 1) +
                     " compiled/simulated/loaded a different count");
    }
    if (tracer_.enabled()) {
      for (const CompiledPlan* p : plans_of_()) {
        const Tracer::Scope span(tracer_, "verify.plan");
        const VerifyReport report = verify_plan(*p);
        out_.check(report.ok(), "verify_plan: " + report.to_string());
      }
    }
  }
  out_.note("setup_s: " + std::to_string(reps) + " fresh setups " + when +
            " (s):" + list.str());
  const double n = static_cast<double>(secs_.size());
  out_.set("setup_s", median(secs_), "s");
  out_.set("compiler.plans", first_.plans, "count");
  out_.set("sim.iss_tiles", static_cast<double>(first_.iss_tiles), "count");
  if (tracer_.enabled()) {
    out_.set("compiler.compile_ms", tracer_.total_ms("compiler.compile") / n,
             "ms");
    out_.set("artifact.load_ms", tracer_.total_ms("artifact.load") / n, "ms");
    out_.set("verify.ms", tracer_.total_ms("verify.plan") / n, "ms");
  }
}

uint64_t counter(const std::string& name) {
  return metrics::registry().counter(name).value();
}

}  // namespace perfbench
