#pragma once
// PlanStore: pre-compiles and indexes CompiledPlans per (graph content x
// batch size x cluster config) for the serving runtime.
//
// The store owns the serving-side compile-once guarantee: each registered
// model's parameters are fingerprinted once (add_model), every (batch,
// num_clusters) variant is keyed by plan_fingerprint_from(graph_fp,
// options) — the identity the registry files artifacts under — and all
// compiles share one TileLatencyCache, so a tile
// geometry common to several variants is ISS-measured exactly once.
// After warm() has covered the configs a Dispatcher can request,
// compiles() must stay constant however much traffic is served (the
// serving bench asserts exactly that).

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "artifact/registry.hpp"
#include "exec/compile.hpp"

namespace decimate {

class PlanStore {
 public:
  /// `base` carries every option except batch / num_clusters, which the
  /// store varies per entry. `latencies` may be shared with other
  /// compilers; a fresh cache is created when omitted.
  explicit PlanStore(const CompileOptions& base = {},
                     std::shared_ptr<TileLatencyCache> latencies = nullptr);

  /// Register a model. The store keeps its own copy of the graph, so the
  /// argument may be destroyed freely afterwards and cached plans always
  /// reference the store's stable copy (no pointer fix-ups, no races with
  /// concurrent serving). Returns a stable model id; a graph with
  /// identical content re-uses the existing id (and therefore every plan
  /// already compiled for it).
  int add_model(const Graph& graph);

  int model_count() const;

  /// The store's own copy of a registered model's graph (the one every
  /// cached plan references).
  const Graph& graph(int model) const;

  /// The plan serving `model` at this batch size and cluster config;
  /// compiles on first request, then returns the cached plan (reference
  /// stays valid for the store's lifetime — entries are never evicted).
  /// Thread-safe; concurrent requests for one config compile once.
  const CompiledPlan& plan(int model, int batch, int num_clusters = 1);

  /// Whether the (model, batch, num_clusters) plan is already compiled.
  bool contains(int model, int batch, int num_clusters = 1) const;

  /// Pre-compile a set of batch sizes (each at `num_clusters` clusters)
  /// so serving never compiles on the request path.
  void warm(int model, std::span<const int> batches, int num_clusters = 1);

  /// Plans compiled so far (cache misses): zero recompiles after warm-up
  /// means this stays constant while serving. Registry loads are NOT
  /// compiles — a store serving entirely from a warm registry keeps this
  /// at zero forever.
  int compiles() const;

  /// Plans admitted from the registry (read-through hits).
  int registry_loads() const;

  /// Quarantine a plan identity the serving layer has judged poisoned
  /// (N consecutive execution failures): the cached entry retires — any
  /// reference already handed out stays valid for the store's lifetime,
  /// honoring plan()'s contract — and the fingerprint is barred from
  /// registry read-through, so the next plan() call for this config
  /// compiles fresh from the graph (and its write-through publish
  /// replaces the distrusted artifact). Returns the fingerprint.
  uint64_t quarantine(int model, int batch, int num_clusters = 1);

  /// Plan identities quarantined so far.
  int quarantines() const;

  /// Registry read-throughs that failed the admission gate (corrupt /
  /// unreadable artifact) and fell back to a fresh compile instead of
  /// taking down the caller.
  int registry_faults() const;

  /// Attach a PlanRegistry as the read-through / write-through tier:
  /// plan() misses first try registry.load(fingerprint) (a hit skips the
  /// compiler AND the ISS entirely), and freshly compiled plans are
  /// published back so the next process cold-starts warm. A loaded plan
  /// carries every cycle it reports, so serving it — shard planning
  /// included — never touches the latency cache.
  void attach_registry(std::shared_ptr<PlanRegistry> registry);

  /// Convenience: open (or create) `dir` as this store's registry tier.
  /// Returns the registry.
  std::shared_ptr<PlanRegistry> attach_registry(const std::string& dir);

  std::shared_ptr<PlanRegistry> registry() const;

  /// Persist the shared latency cache to base_options().latency_cache_path
  /// (which must be set). A store constructed later with the same path
  /// warms up ISS-free: every tile shape measured during this process's
  /// compiles is read back from the file.
  size_t save_latencies() const;

  const CompileOptions& base_options() const { return base_; }
  std::shared_ptr<TileLatencyCache> shared_latencies() const {
    return latencies_;
  }

 private:
  struct Model {
    std::unique_ptr<Graph> graph;  // owned copy, stable address
    uint64_t fingerprint = 0;      // graph content, hashed once at add_model
  };

  uint64_t key_for(int model, int batch, int num_clusters) const;
  CompileOptions options_for(int batch, int num_clusters) const;

  CompileOptions base_;
  std::shared_ptr<TileLatencyCache> latencies_;
  std::shared_ptr<PlanRegistry> registry_;
  mutable std::mutex mu_;
  std::vector<Model> models_;
  // unique_ptr values keep plan references stable across inserts
  std::map<uint64_t, std::unique_ptr<CompiledPlan>> plans_;
  // quarantined plans retire here (never destroyed: references stay
  // valid) and their fingerprints skip registry read-through
  std::vector<std::unique_ptr<CompiledPlan>> retired_;
  std::set<uint64_t> quarantined_;
  int compiles_ = 0;
  int registry_loads_ = 0;
  int quarantines_ = 0;
  int registry_faults_ = 0;
};

}  // namespace decimate
