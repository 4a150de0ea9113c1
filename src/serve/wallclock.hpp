#pragma once
// WallClockServer — the serving runtime on real time, real threads, and
// real failures.
//
// Where serve_trace replays a deterministic modeled-cycle timeline, this
// mode is a server: submit() is called from any thread at actual wall
// times, deadlines are steady-clock nanoseconds, and batches execute on
// the host kernels through one Dispatcher on one executor thread — one
// ExecutionEngine, one worker pool, one cost table. Determinism moves
// down a level — each served output is still bit-exact with a sequential
// ExecutionEngine::run, but WHICH requests complete (vs shed/reject)
// depends on real machine speed, which is the point.
//
// Flow of a request:
//
//   submit() ── malformed (unwarmed model, wrong input shape) or
//      │        admission_decision ──reject──> WallServed{kRejected}
//      │ admit
//      v
//   EdfQueue (bounded; overflow sheds lowest-value/latest-deadline)
//      │
//   serve() loop: forms the earliest-deadline same-model batch (size
//   shrinks under brown-out), sheds entries whose deadline can no longer
//   be met even if started now, and hands the batch to the executor
//   thread; the serving thread waits with a watchdog.
//      │
//   executor: Dispatcher::dispatch runs the batch as fused chunks on the
//   host kernels (a lone request as one image split over the engine's
//   pool); the modeled placement it reports is chosen by modeled cycles
//   under the request's remaining wall budget, translated via the
//   model's calibrated ns/cycle. warm(model) seeds that model's
//   calibration by timing that same one-image call, and every batch then
//   adds its wall time divided by the modeled cycles of its fused chunks
//   to the calibration of the model it ran. All modeled cycles come
//   from the Dispatcher's warm-time cost table, so warm() every model
//   before serve() — a warm() after serve() has started throws.
//
// Fault-tolerance ladder, in escalation order:
//  1. retry-with-backoff: a failed dispatch retries up to max_retries
//     (injected FaultInjectedErrors and real transient errors alike).
//  2. watchdog + per-image redispatch: if the executor does not finish
//     within max(watchdog_floor_ns, watchdog_factor x predicted), the job
//     is abandoned (its cancel flag unsticks injected stalls; a late
//     straggler result is discarded) and every request re-runs
//     individually on the serving thread, through the serial
//     ExecutionEngine::run of the dispatcher's engine.
//  3. quarantine: quarantine_after consecutive batch failures for a model
//     quarantines its plan fingerprints in the PlanStore (references stay
//     valid; next use compiles fresh, bypassing the registry) and the
//     batch gets one post-quarantine attempt on the fresh plans.
//  4. brown-out: a queue of 4 x max_batch requests or more degrades
//     service rather than latency — level 1 halves the batch, level 2
//     (twice that depth) quarters it, level 3 (three times) additionally
//     sheds every queued request that could not finish even if started
//     immediately.
//
// A real straggler (one that does not end at its cancel flag) keeps the
// single executor busy: a batch dispatched meanwhile waits behind it, and
// if the straggler outlives that batch's watchdog too, the batch is
// redispatched image by image on the serving thread like any timed-out
// batch. In steady state the server runs as many threads as there are
// cores (the executor plus its pool); the serving thread adds one more
// only while it redispatches.
//
// Every terminal outcome is typed (ServeOutcome + ServeReason); nothing
// is silently dropped, nothing blocks forever. Metrics live under
// serve.wall.*, spans under Cat::kServe on the "serve.wallclock" and
// "serve.executor" threads.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/dispatcher.hpp"

namespace decimate {

struct WallClockConfig {
  /// Default per-request SLO, relative to arrival (WallRequest overrides).
  uint64_t deadline_ns = 50'000'000;
  /// Requests co-dispatched per batch at brown-out level 0; also sets
  /// the brown-out depths (4x, 8x, 12x max_batch queued requests).
  int max_batch = 4;
  AdmissionPolicy admission;

  // -- fault tolerance --
  /// Full-batch dispatch attempts after the first failure.
  int max_retries = 2;
  /// Backoff before retry k doubles from this base.
  uint64_t retry_backoff_ns = 200'000;
  /// Watchdog: a dispatch is abandoned after
  /// max(watchdog_floor_ns, watchdog_factor x predicted exec ns).
  double watchdog_factor = 8.0;
  uint64_t watchdog_floor_ns = 2'000'000;
  /// Consecutive failed batches (per model) before plan quarantine.
  int quarantine_after = 3;
};

/// How a request's story ended.
enum class ServeOutcome : uint8_t {
  kOk = 0,
  kRejected,  // refused at submit(): malformed, or by admission control
  kShed,      // admitted, then load-shed before execution
  kFailed,    // executed but kept failing after the whole recovery ladder
};

const char* to_string(ServeOutcome outcome);

/// The modeled cycles a wall budget of `budget_ns` buys at `ns_per_cycle`
/// — how a batch's remaining deadline reaches the Dispatcher. UINT64_MAX
/// (no deadline) when uncalibrated (ns_per_cycle <= 0) or when the cycles
/// exceed the uint64 range.
uint64_t ns_to_cycles(uint64_t budget_ns, double ns_per_cycle);

/// Per-request wall-clock serving report. Times are steady-clock ns on
/// the server's epoch (now_ns()).
struct WallServed {
  uint64_t id = 0;
  int model = 0;
  ServeOutcome outcome = ServeOutcome::kOk;
  ServeReason reason = ServeReason::kNone;  // != kNone iff outcome != kOk
  std::string detail;                       // failure detail for non-kOk
  Tensor8 output;                           // valid iff outcome == kOk

  ServeMode mode = ServeMode::kBatchFused;
  int group_size = 0;
  int retries = 0;           // full-batch dispatch retries consumed
  bool redispatched = false; // recovered via per-image redispatch

  uint64_t arrival_ns = 0;
  uint64_t dispatch_ns = 0;     // first dispatch attempt (0: never ran)
  uint64_t completion_ns = 0;   // outcome decided (incl. reject/shed time)
  uint64_t deadline_abs_ns = 0;
  /// The exec-time prediction the server acted on, made before dispatch:
  /// the batch's for a batch-served request, admission's single-image
  /// one for a redispatched or never-executed request.
  uint64_t modeled_exec_ns = 0;
  bool deadline_hit = false;    // only meaningful for kOk

  uint64_t latency_ns() const { return completion_ns - arrival_ns; }

  /// The typed error for a non-kOk outcome.
  ServeError error() const { return {reason, id, detail}; }
};

class WallClockServer {
 public:
  /// One Dispatcher over `store`, and the executor thread that runs its
  /// dispatches. warm() fills the Dispatcher's cost table before serving
  /// starts; the serving thread's per-image redispatch uses only its
  /// engine's thread-safe run().
  WallClockServer(PlanStore& store, const DispatchConfig& dispatch_cfg,
                  const WallClockConfig& cfg);
  ~WallClockServer();
  WallClockServer(const WallClockServer&) = delete;
  WallClockServer& operator=(const WallClockServer&) = delete;

  /// Compile every plan serving can request for `model` and fill the
  /// Dispatcher's cost table, then time one calibration inference — a
  /// one-image run_batch on the executor's engine, the call the executor
  /// makes — to seed the model's ns/cycle EWMA (starting the engine's
  /// worker pool if the image splits), and record the model's input
  /// shape. Must run before serve(): once serve() has started, warm()
  /// throws an Error (the check and serve()'s start are under one mutex,
  /// so the two never interleave).
  void warm(int model);

  /// Thread-safe. Stamps arrival, decides admission, enqueues or records
  /// the typed rejection. A request for a model that was never warm()ed,
  /// or whose input is not that model's input shape, is rejected as
  /// kMalformed before it can reach a batch. Never blocks on execution.
  void submit(WallRequest r);

  /// No further submits; serve() returns once the queue drains.
  void close();

  /// Run the serving loop on the caller's thread until close()d and
  /// drained. Returns every request's report (completion order).
  std::vector<WallServed> serve();

  /// Steady-clock ns since this server's construction.
  uint64_t now_ns() const;

  /// Calibrated wall prediction for one batch of `batch` images (fused
  /// chunk decomposition x ns/cycle). Thread-safe; model must be warm.
  uint64_t predicted_exec_ns(int model, int batch) const;

  /// Modeled sustained throughput at the largest warmed fused batch —
  /// the rate admission control is defending.
  double sustained_img_per_s(int model) const;

  /// Current brown-out level (0-3), for tests/benches.
  int brownout_level() const;

  /// The model's calibrated wall ns per modeled cycle (0 before its
  /// warm()). Each model keeps its own: a batch updates only the model
  /// that ran.
  double ns_per_cycle(int model) const;

 private:
  struct Job {
    int model = 0;
    std::vector<uint64_t> ids;
    std::vector<Tensor8> inputs;  // owned copies: survive abandonment
    SloConfig slo;
    std::atomic<bool> abandoned{false};

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    DispatchResult result;
    std::exception_ptr error;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  void executor_loop();
  void run_batch_with_recovery(std::vector<QueuedRequest> batch);
  void redispatch_per_image(std::vector<QueuedRequest>& batch,
                            uint64_t first_dispatch_ns, int retries_used);
  void record_success(const std::vector<QueuedRequest>& batch, Job& job,
                      int retries_used, uint64_t dispatch_ns,
                      uint64_t pred_ns);
  void record_ok(const QueuedRequest& qr, WallServed w, uint64_t exec_ns);
  void record_terminal(const QueuedRequest& qr, ServeOutcome outcome,
                       ServeReason reason, const std::string& detail,
                       uint64_t dispatch_ns);
  /// Modeled cycles of the fused chunks a batch runs as, read from the
  /// Dispatcher's warm-time cost table; mu_ held.
  uint64_t modeled_cycles_for(int model, int batch) const;
  uint64_t predicted_exec_ns_locked(int model, int batch) const;
  void update_brownout_locked(size_t depth);
  void shed_infeasible_locked(uint64_t now);
  void quarantine_model(int model);

  PlanStore& store_;
  WallClockConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;
  // every fused chunk, warm()'s calibration and the per-image redispatch
  // execute on its one engine and worker pool
  Dispatcher dispatcher_;

  // serving state (mu_): queue, reports, calibration, brown-out
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  bool serving_ = false;  // serve() has started: warm() is refused
  EdfQueue queue_;
  std::vector<WallServed> done_;
  // per model: EWMA, seeded by warm()'s timed run
  std::map<int, double> ns_per_cycle_;
  uint64_t inflight_pred_ns_ = 0;
  int brownout_level_ = 0;
  std::map<int, int> consecutive_failures_;
  std::map<int, std::vector<int>> input_shapes_;  // per warm()ed model

  // executor state (exec_mu_)
  std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;

  // declared (and started) last: it uses every member above
  std::thread executor_;
};

}  // namespace decimate
