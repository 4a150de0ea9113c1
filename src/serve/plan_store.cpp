#include "serve/plan_store.hpp"

#include "compiler/fingerprint.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/verify.hpp"

namespace decimate {

PlanStore::PlanStore(const CompileOptions& base,
                     std::shared_ptr<TileLatencyCache> latencies)
    : base_(base),
      latencies_(latencies ? std::move(latencies)
                           : std::make_shared<TileLatencyCache>()) {
  // warm start: load once here, not per-compile — options_for() strips
  // the path so the per-plan Compilers don't re-read the file
  if (!base_.latency_cache_path.empty()) {
    latencies_->load(base_.latency_cache_path);
  }
}

size_t PlanStore::save_latencies() const {
  DECIMATE_CHECK(!base_.latency_cache_path.empty(),
                 "save_latencies needs CompileOptions::latency_cache_path");
  return latencies_->save(base_.latency_cache_path);
}

int PlanStore::add_model(const Graph& graph) {
  const uint64_t fp = graph_fingerprint(graph);  // outside the lock: O(bytes)
  const std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < models_.size(); ++i) {
    // same content (possibly a re-created Graph object): the existing
    // registration and its plans keep serving from the store's own copy
    if (models_[i].fingerprint == fp) return static_cast<int>(i);
  }
  models_.push_back(Model{std::make_unique<Graph>(graph), fp});
  return static_cast<int>(models_.size()) - 1;
}

int PlanStore::model_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(models_.size());
}

const Graph& PlanStore::graph(int model) const {
  const std::lock_guard<std::mutex> lock(mu_);
  DECIMATE_CHECK(model >= 0 && model < static_cast<int>(models_.size()),
                 "unknown model id " << model);
  return *models_[static_cast<size_t>(model)].graph;
}

CompileOptions PlanStore::options_for(int batch, int num_clusters) const {
  DECIMATE_CHECK(batch >= 1, "batch must be >= 1, got " << batch);
  DECIMATE_CHECK(num_clusters >= 1,
                 "num_clusters must be >= 1, got " << num_clusters);
  CompileOptions opt = base_;
  opt.batch = batch;
  opt.num_clusters = num_clusters;
  // the store's shared cache was warmed in the constructor; per-plan
  // Compilers must not re-read the file on every compile
  opt.latency_cache_path.clear();
  return opt;
}

uint64_t PlanStore::key_for(int model, int batch, int num_clusters) const {
  DECIMATE_CHECK(model >= 0 && model < static_cast<int>(models_.size()),
                 "unknown model id " << model);
  return plan_fingerprint_from(models_[static_cast<size_t>(model)].fingerprint,
                               options_for(batch, num_clusters));
}

void PlanStore::attach_registry(std::shared_ptr<PlanRegistry> registry) {
  const std::lock_guard<std::mutex> lock(mu_);
  registry_ = std::move(registry);
}

std::shared_ptr<PlanRegistry> PlanStore::attach_registry(
    const std::string& dir) {
  auto registry = std::make_shared<PlanRegistry>(dir, latencies_);
  attach_registry(registry);
  return registry;
}

std::shared_ptr<PlanRegistry> PlanStore::registry() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return registry_;
}

const CompiledPlan& PlanStore::plan(int model, int batch, int num_clusters) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t key = key_for(model, batch, num_clusters);
  auto it = plans_.find(key);
  if (it == plans_.end() && registry_ != nullptr &&
      quarantined_.count(key) == 0) {
    // read-through: a published artifact with this exact plan identity
    // serves without the compiler or the ISS. load() already ran the
    // full admission gate (artifact.* checks + static verifier); the
    // loaded plan owns its rehydrated graph, so it never references the
    // store's model copy. A quarantined fingerprint skips this tier —
    // the on-disk artifact is exactly what is distrusted.
    try {
      auto loaded = registry_->load(key);
      if (loaded.has_value()) {
        // a runtime knob is the loading process's, not the publisher's
        loaded->options.verify_plans = base_.verify_plans;
        ++registry_loads_;
        it = plans_
                 .emplace(key,
                          std::make_unique<CompiledPlan>(std::move(*loaded)))
                 .first;
      }
    } catch (const Error&) {
      // A corrupt/unreadable artifact (VerifyError from the admission
      // gate, I/O failure, an injected load fault) must not take serving
      // down: count it and fall back to compiling from the graph — the
      // write-through below then replaces the bad artifact.
      ++registry_faults_;
      metrics::registry().counter("serve.plan_store.registry_faults").inc();
      trace::instant(trace::Cat::kServe, "plan_store.registry_fault");
    }
  }
  if (it == plans_.end()) {
    // compiles_ stays the per-store view (compiles() below); the registry
    // counter aggregates across every store in the process
    ++compiles_;
    metrics::registry().counter("serve.plan_store.compiles").inc();
    trace::TraceScope compile_span(trace::Cat::kServe, "plan_store.compile");
    compile_span.arg("batch", batch);
    compile_span.arg("clusters", num_clusters);
    // Compiling under the lock keeps the exactly-once guarantee simple;
    // the latency cache handles its own concurrency, and serving compiles
    // only during warm-up anyway.
    const CompileOptions opt = options_for(batch, num_clusters);
    Compiler compiler(opt, latencies_);
    auto plan = std::make_unique<CompiledPlan>(
        compiler.compile(*models_[static_cast<size_t>(model)].graph));
    // Admission gate: serving plans are always statically verified, even
    // in Release builds where the compiler post-pass is off by default.
    // (When opt.verify_plans is set the compile above already verified.)
    if (!opt.verify_plans) {
      VerifyReport report = verify_plan(*plan);
      if (!report.ok()) throw VerifyError(std::move(report));
    }
    it = plans_.emplace(key, std::move(plan)).first;
    // write-through: the next process (or the next fleet rollout) finds
    // this exact plan identity on disk and cold-starts with zero
    // compiles and zero ISS invocations
    if (registry_ != nullptr) registry_->publish(*it->second);
  }
  return *it->second;
}

bool PlanStore::contains(int model, int batch, int num_clusters) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_.count(key_for(model, batch, num_clusters)) != 0;
}

void PlanStore::warm(int model, std::span<const int> batches,
                     int num_clusters) {
  for (const int b : batches) plan(model, b, num_clusters);
}

int PlanStore::compiles() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return compiles_;
}

int PlanStore::registry_loads() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return registry_loads_;
}

uint64_t PlanStore::quarantine(int model, int batch, int num_clusters) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t key = key_for(model, batch, num_clusters);
  quarantined_.insert(key);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    // plan() promises references stay valid for the store's lifetime, so
    // the distrusted plan retires instead of being destroyed; only its
    // index entry goes, forcing the next plan() call to compile fresh.
    retired_.push_back(std::move(it->second));
    plans_.erase(it);
  }
  ++quarantines_;
  metrics::registry().counter("serve.plan_store.quarantines").inc();
  trace::instant(trace::Cat::kServe, "plan_store.quarantine", 0,
                 trace::Flow::kNone, "batch", batch);
  return key;
}

int PlanStore::quarantines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return quarantines_;
}

int PlanStore::registry_faults() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return registry_faults_;
}

}  // namespace decimate
