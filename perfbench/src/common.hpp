#pragma once
// Shared plumbing of the repository benchmark: clock and statistics, the
// benchmark's own span tracer, the reference oracle, the per-step replay
// profile, always-on metric deltas, and the result printer.
//
// Everything here calls only the library's public headers; nothing in
// src/ knows the benchmark exists.

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compiler/graph.hpp"
#include "exec/plan.hpp"
#include "nn/tensor.hpp"
#include "serve/plan_store.hpp"

namespace perfbench {

using decimate::CompiledPlan;
using decimate::Graph;
using decimate::Tensor8;

// --- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;  // default; claims are confirmed on held-out seed 20250
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";  // trace + profile files
};

// --- clock and statistics ---------------------------------------------------

/// Steady-clock nanoseconds on an arbitrary process-wide epoch.
uint64_t now_ns();

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked. emit() prints every metric by name
/// with its unit, then the final JSON line: the end-to-end metrics of
/// BENCHMARK.json in an untraced run, the per-layer ones in a traced run.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   // sample counts and other context
  std::vector<std::string> errors;  // failed checks (any => not correct)
  int64_t attempted = 0;
  int64_t failed = 0;  // wrong output, kFailed, or exception

  /// Set (or overwrite) a metric; an empty unit takes the declared one.
  void set(const std::string& name, double value, std::string unit = "");
  void note(const std::string& line) { notes.push_back(line); }
  /// Record a failed check unless `ok`.
  void check(bool ok, const std::string& what);
};

/// Print the report and the JSON result line; returns the exit code.
int emit(const Outcome& out, bool trace);

/// Set latency_p50_ms, latency_p90_ms, latency_p99_ms and latency_tail_ms
/// from a latency sample (ms). The tail is the workload's fixed percentile
/// `q` (p90 for the closed loop, p99 for the open loops), the highest one
/// its run leaves 10 samples beyond; a sample too small for that is flagged
/// in the report.
void latency_metrics(const std::vector<double>& ms, double q,
                     const std::string& what, Outcome& out);

// --- bench-side tracing -----------------------------------------------------

/// Spans recorded from the benchmark's own files around calls into each
/// layer's public functions. Disabled tracers record nothing; enabled ones
/// can still be paused (the traced run alternates traced and untraced
/// windows to measure the tracer's own overhead).
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t id = 0;   // request / batch id (0 = none)
    int parent = -1;   // index of the enclosing span on the same thread
  };

  explicit Tracer(bool enabled) : enabled_(enabled), active_(enabled) {}
  bool enabled() const { return enabled_; }
  bool active() const { return active_; }
  void set_active(bool on) { active_ = enabled_ && on; }

  /// RAII span; a no-op unless the tracer is active.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, uint64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Rename before close (e.g. a plan() call turned out to be a load).
    void rename(const char* name);

   private:
    Tracer* t_ = nullptr;
    int idx_ = -1;
    int saved_parent_ = -1;
  };

  /// Total and individual durations (ms) of the spans with this name.
  double total_ms(const std::string& name) const;
  std::vector<double> durations_ms(const std::string& name) const;

  /// Chrome trace-event JSON (opens in Perfetto); false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  int open(const char* name, uint64_t id, int parent);
  void close(int idx);
  void rename(int idx, const char* name);

  bool enabled_;
  bool active_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- the reference oracle ---------------------------------------------------

/// A seeded pool of distinct inputs for one model and their outputs from
/// the scalar reference ops (ExecutionEngine::set_use_host_kernels(false)),
/// computed before anything is timed.
struct OraclePool {
  std::vector<Tensor8> inputs;
  std::vector<Tensor8> outputs;
};

OraclePool make_oracle(const Graph& graph, int size, uint64_t seed);

// --- per-step replay profile ------------------------------------------------

struct StepRow {
  std::string layer;
  std::string family;    // host_impl_name, or the op name for vector steps
  std::string instance;  // host kernel instance ("-" for vector steps)
  bool gemm = false;
  int64_t macs = 0;
  uint64_t cycles = 0;   // modeled MCU cycles (per image)
  double ns = 0.0;       // host ns, median over the replays
};

struct PlanProfile {
  std::string model;     // "resnet18" or "vit_ffn"
  std::string plan;      // e.g. "resnet18-m8@b8"
  double weight = 0.0;   // share of the workload's images on this plan
  uint64_t plan_cycles = 0;
  std::vector<StepRow> rows;
  double total_ns() const;
};

/// Replay `plan` one step at a time through exec_gemm_node_host /
/// exec_vec_node_ref, `reps` times, timing every step. Checks that the
/// replayed output equals ExecutionEngine::run's and the oracle's, and
/// that the always-on exec.kernel.* counters moved by exactly the number
/// of gemm steps replayed.
PlanProfile replay_profile(const CompiledPlan& plan, const std::string& model,
                           const std::string& name, double weight,
                           const Tensor8& input, const Tensor8& expected,
                           int reps, Tracer& tracer, Outcome& out);

/// Per-layer nn.* / exec.* metrics from the profiles, weighted by mix.
void profile_metrics(const std::vector<PlanProfile>& profiles, Outcome& out);

/// Print the per-step rows, and write them as TSV and the spans as a
/// Chrome trace under args.out_dir.
void write_trace_outputs(const Args& args,
                         const std::vector<PlanProfile>& profiles,
                         const Tracer& tracer);

/// Conv / FC / matmul: the steps the host kernel families execute.
bool is_gemm(decimate::OpType op);

// --- setup ------------------------------------------------------------------

/// PlanStore::plan() in a span named for what the call did:
/// "compiler.compile" when it compiled (ISS tiles and the verify gate
/// included), "artifact.load" when it came from the registry.
void warm_plan(decimate::PlanStore& store, Tracer& tracer, int model,
               int batch, int clusters);

/// What every repetition of a workload's setup must reproduce exactly.
struct SetupCounts {
  int plans = 0;            // PlanStore::compiles()
  uint64_t iss_tiles = 0;   // TileLatencyCache::misses()
  int registry_loads = 0;   // PlanStore::registry_loads()
};

/// Times fresh setups: each `fn` call builds a new store from scratch and
/// returns its counts. A run samples setups both before and after its
/// timed phase, so setup_s, the median of all of them, is not set by one
/// slow stretch of a shared host. Every setup's counts must repeat exactly
/// and agree with the always-on exec.tile_cache.misses delta. In a traced
/// run each setup also runs verify_plan over the plans `plans_of` lists
/// (outside the timed part), and the compile / load / verify span totals
/// become per-layer metrics (mean per setup).
class SetupSampler {
 public:
  using PlansFn = std::function<std::vector<const CompiledPlan*>()>;
  SetupSampler(Tracer& tracer, Outcome& out, std::function<SetupCounts()> fn,
               PlansFn plans_of)
      : tracer_(tracer),
        out_(out),
        fn_(std::move(fn)),
        plans_of_(std::move(plans_of)) {}

  /// Time `reps` more setups, then set setup_s, compiler.plans,
  /// sim.iss_tiles and (traced) the per-layer setup metrics from all
  /// setups so far. `when` labels the sample in the report.
  void sample(int reps, const std::string& when);

 private:
  Tracer& tracer_;
  Outcome& out_;
  std::function<SetupCounts()> fn_;
  PlansFn plans_of_;
  std::vector<double> secs_;
  SetupCounts first_;
};

// --- always-on metrics ------------------------------------------------------

/// Value of a counter in decimate::metrics::registry().
uint64_t counter(const std::string& name);

}  // namespace perfbench
