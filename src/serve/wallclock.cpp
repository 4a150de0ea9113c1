#include "serve/wallclock.hpp"

#include <algorithm>
#include <sstream>

#include "common/bitutil.hpp"
#include "common/rng.hpp"
#include "serve/fault.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace decimate {

namespace {

std::string what_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

bool is_transient(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const fault::FaultInjectedError&) {
    return true;
  } catch (...) {
    return false;
  }
}

void sleep_ns(uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

}  // namespace

const char* to_string(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kOk: return "ok";
    case ServeOutcome::kRejected: return "rejected";
    case ServeOutcome::kShed: return "shed";
    case ServeOutcome::kFailed: return "failed";
  }
  return "?";
}

uint64_t ns_to_cycles(uint64_t budget_ns, double ns_per_cycle) {
  if (ns_per_cycle <= 0.0) return UINT64_MAX;
  const double cycles = static_cast<double>(budget_ns) / ns_per_cycle;
  // converting a double at or beyond 2^64 to uint64_t is undefined
  return cycles >= static_cast<double>(UINT64_MAX)
             ? UINT64_MAX
             : static_cast<uint64_t>(cycles);
}

WallClockServer::WallClockServer(PlanStore& store,
                                 const DispatchConfig& dispatch_cfg,
                                 const WallClockConfig& cfg)
    : store_(store),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      dispatcher_(store, dispatch_cfg) {
  DECIMATE_CHECK(cfg_.max_batch >= 1, "max_batch must be >= 1");
  // started after the check, so a refused config leaves no thread behind
  executor_ = std::thread([this] { executor_loop(); });
}

WallClockServer::~WallClockServer() {
  {
    const std::lock_guard<std::mutex> lock(exec_mu_);
    stop_ = true;
  }
  exec_cv_.notify_all();
  executor_.join();
}

uint64_t WallClockServer::now_ns() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void WallClockServer::warm(int model) {
  trace::TraceScope span(trace::Cat::kServe, "wallclock.warm");
  // mu_ is held throughout: the dispatcher's cost table is read under it
  // (and, once serving, lock-free by the executor), so warm() and serve()
  // must not interleave
  const std::lock_guard<std::mutex> lock(mu_);
  DECIMATE_CHECK(!serving_, "warm(" << model
                                    << ") after serve() started: warm every "
                                       "model before serving");
  dispatcher_.warm(model);
  // Calibration: a timed one-image run_batch — the call the executor makes
  // for a single request, on the engine and pool it serves with — seeds
  // (or refreshes) the ns/cycle EWMA that translates modeled cycles into
  // wall predictions. Two runs, keep the faster — the first pays cold
  // caches (and starts the pool, so no request waits for it).
  const CompiledPlan& single = store_.plan(model, 1, 1);
  Rng rng(0x5eedULL + static_cast<uint64_t>(model));
  const Tensor8 input = Tensor8::random(store_.graph(model).node(0).out_shape,
                                        rng);
  uint64_t best_ns = UINT64_MAX;
  for (int i = 0; i < 2; ++i) {
    const uint64_t t0 = now_ns();
    dispatcher_.engine().run_batch(single, {&input, 1});
    best_ns = std::min(best_ns, now_ns() - t0);
  }
  const double measured = static_cast<double>(best_ns) /
                          static_cast<double>(modeled_cycles_for(model, 1));
  ns_per_cycle_ =
      ns_per_cycle_ == 0.0 ? measured : 0.5 * ns_per_cycle_ + 0.5 * measured;
  input_shapes_[model] = input.shape();
}

uint64_t WallClockServer::modeled_cycles_for(int model, int batch) const {
  // the fused chunks the host executes, from the warm-time cost table
  // (warm() writes it under mu_)
  return dispatcher_.fused_cycles(model, batch);
}

uint64_t WallClockServer::predicted_exec_ns_locked(int model,
                                                   int batch) const {
  DECIMATE_CHECK(ns_per_cycle_ > 0.0,
                 "model " << model << " was not warm()ed (no calibration)");
  return static_cast<uint64_t>(
      static_cast<double>(modeled_cycles_for(model, batch)) * ns_per_cycle_);
}

uint64_t WallClockServer::predicted_exec_ns(int model, int batch) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return predicted_exec_ns_locked(model, batch);
}

double WallClockServer::sustained_img_per_s(int model) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // largest fused size
  const int b = dispatcher_.config().fused_batches.back();
  const uint64_t ns = predicted_exec_ns_locked(model, b);
  return ns == 0 ? 0.0 : static_cast<double>(b) * 1e9 /
                             static_cast<double>(ns);
}

int WallClockServer::brownout_level() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return brownout_level_;
}

double WallClockServer::ns_per_cycle() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ns_per_cycle_;
}

void WallClockServer::record_terminal(const QueuedRequest& qr,
                                      ServeOutcome outcome, ServeReason reason,
                                      const std::string& detail,
                                      uint64_t dispatch_ns) {
  // mu_ must be held by the caller.
  WallServed w;
  w.id = qr.req.id;
  w.model = qr.req.model;
  w.outcome = outcome;
  w.reason = reason;
  w.detail = detail;
  w.arrival_ns = qr.arrival_ns;
  w.deadline_abs_ns = qr.deadline_abs_ns;
  w.dispatch_ns = dispatch_ns;
  w.completion_ns = now_ns();
  w.modeled_exec_ns = qr.predicted_exec_ns;
  std::string counter_name = "serve.wall.";
  counter_name += to_string(outcome);
  counter_name += '.';
  counter_name += to_string(reason);
  metrics::registry().counter(counter_name).inc();
  trace::instant(trace::Cat::kServe, "wallclock.terminal", w.id,
                 trace::Flow::kEnd, nullptr, 0, "reason", to_string(reason));
  done_.push_back(std::move(w));
}

void WallClockServer::submit(WallRequest r) {
  const uint64_t now = now_ns();
  auto& reg = metrics::registry();
  trace::instant(trace::Cat::kServe, "wallclock.arrival", r.id,
                 trace::Flow::kStart);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    DECIMATE_CHECK(!closed_, "submit after close");
    reg.counter("serve.wall.submitted").inc();
    const uint64_t rel = r.deadline_ns != 0 ? r.deadline_ns : cfg_.deadline_ns;
    QueuedRequest q;
    q.arrival_ns = now;
    q.deadline_abs_ns = saturating_add(now, rel);
    // validate at the boundary: a request that cannot run must end as its
    // own typed rejection, not fail the batch it would join
    const auto shape = input_shapes_.find(r.model);
    if (shape == input_shapes_.end() || r.input.shape() != shape->second) {
      const char* detail = shape == input_shapes_.end()
                               ? "model was never warm()ed"
                               : "input is not the model's input shape";
      q.req = std::move(r);
      record_terminal(q, ServeOutcome::kRejected, ServeReason::kMalformed,
                      detail, 0);
      return;
    }
    q.predicted_exec_ns = predicted_exec_ns_locked(r.model, 1);
    q.req = std::move(r);
    const ServeReason why =
        admission_decision(now, q.deadline_abs_ns, q.predicted_exec_ns,
                           inflight_pred_ns_ + queue_.backlog_ns());
    if (why != ServeReason::kNone) {
      record_terminal(q, ServeOutcome::kRejected, why, "", 0);
      return;
    }
    reg.counter("serve.wall.admitted").inc();
    queue_.push(std::move(q));
    // bounded inbox: evict the least valuable entry (possibly the one
    // that just arrived) until the depth policy holds again
    while (queue_.size() > cfg_.admission.max_queue_depth) {
      const QueuedRequest victim = queue_.shed_one();
      record_terminal(victim, ServeOutcome::kShed,
                      ServeReason::kShedQueueDepth, "", 0);
    }
    reg.gauge("serve.wall.queue_depth").set(
        static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_all();
}

void WallClockServer::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void WallClockServer::update_brownout_locked(size_t depth) {
  const size_t d0 = 4 * static_cast<size_t>(cfg_.max_batch);
  const int level = depth >= 3 * d0 ? 3 : depth >= 2 * d0 ? 2
                                      : depth >= d0       ? 1
                                                          : 0;
  if (level != brownout_level_) {
    auto& reg = metrics::registry();
    reg.counter("serve.wall.brownout_transitions").inc();
    reg.gauge("serve.wall.brownout_level").set(level);
    trace::instant(trace::Cat::kServe, "wallclock.brownout_level", 0,
                   trace::Flow::kNone, "level", level);
    brownout_level_ = level;
  }
}

void WallClockServer::shed_infeasible_locked(uint64_t now) {
  // serve-or-shed over the whole queue: walking in deadline (EDF) order,
  // an entry survives only if everything surviving ahead of it plus its
  // own service still fits its deadline
  std::vector<QueuedRequest> all = queue_.drain();
  uint64_t cum_ns = 0;
  for (QueuedRequest& qr : all) {
    const double need = static_cast<double>(cum_ns + qr.predicted_exec_ns) *
                        kAdmissionHeadroom;
    if (static_cast<double>(now) + need >
        static_cast<double>(qr.deadline_abs_ns)) {
      record_terminal(qr, ServeOutcome::kShed, ServeReason::kShedPredictedWait,
                      "brown-out serve-or-shed", 0);
    } else {
      cum_ns += qr.predicted_exec_ns;
      queue_.push(std::move(qr));
    }
  }
}

std::vector<WallServed> WallClockServer::serve() {
  trace::set_thread_name("serve.wallclock");
  trace::TraceScope serve_span(trace::Cat::kServe, "wallclock.serve");
  std::unique_lock<std::mutex> lock(mu_);
  serving_ = true;  // from here on warm() throws
  for (;;) {
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) break;  // closed and drained
    update_brownout_locked(queue_.size());
    if (brownout_level_ >= 3) {
      shed_infeasible_locked(now_ns());
      if (queue_.empty()) continue;
    }
    // brown-out shrinks the co-dispatched batch (level 1 halves it,
    // level 2+ quarters it) to cap the latency any one request donates
    // to its groupmates
    const int eff_batch =
        std::max(1, cfg_.max_batch >> std::min(brownout_level_, 2));
    const int model = queue_.front().req.model;
    std::vector<QueuedRequest> batch =
        queue_.pop_model_batch(model, static_cast<size_t>(eff_batch));
    metrics::registry().gauge("serve.wall.queue_depth").set(
        static_cast<int64_t>(queue_.size()));
    // final serve-or-shed: if even starting now cannot meet a member's
    // deadline, a typed shed beats a guaranteed miss
    std::vector<QueuedRequest> keep;
    keep.reserve(batch.size());
    const uint64_t now = now_ns();
    const uint64_t pred =
        predicted_exec_ns_locked(model, static_cast<int>(batch.size()));
    for (QueuedRequest& qr : batch) {
      const double done_at =
          static_cast<double>(now) +
          static_cast<double>(pred) * kAdmissionHeadroom;
      if (done_at > static_cast<double>(qr.deadline_abs_ns)) {
        record_terminal(qr, ServeOutcome::kShed,
                        ServeReason::kShedPredictedWait, "", 0);
      } else {
        keep.push_back(std::move(qr));
      }
    }
    if (keep.empty()) continue;
    lock.unlock();
    run_batch_with_recovery(std::move(keep));
    lock.lock();
  }
  DECIMATE_CHECK(queue_.empty(), "serve loop exited with queued requests");
  return std::move(done_);
}

void WallClockServer::run_batch_with_recovery(
    std::vector<QueuedRequest> batch) {
  auto& reg = metrics::registry();
  const int model = batch.front().req.model;
  const int n = static_cast<int>(batch.size());
  trace::TraceScope span(trace::Cat::kServe, "wallclock.batch");
  span.arg("batch", n);
  span.flow(batch.front().req.id, trace::Flow::kStep);

  uint64_t pred = 0;
  SloConfig slo;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    pred = predicted_exec_ns_locked(model, n);
    // translate the tightest remaining wall budget into a modeled cycle
    // budget: the dispatcher then models tight batches sharded and loose
    // ones fused exactly as it does on the virtual timeline
    uint64_t min_deadline = UINT64_MAX;
    for (const QueuedRequest& qr : batch) {
      min_deadline = std::min(min_deadline, qr.deadline_abs_ns);
    }
    const uint64_t now = now_ns();
    const uint64_t budget_ns = min_deadline > now ? min_deadline - now : 0;
    slo.deadline_cycles = ns_to_cycles(budget_ns, ns_per_cycle_);
    slo.max_batch = n;
    inflight_pred_ns_ += pred;
  }
  const uint64_t first_dispatch_ns = now_ns();
  const uint64_t watchdog_ns =
      std::max(cfg_.watchdog_floor_ns,
               static_cast<uint64_t>(cfg_.watchdog_factor *
                                     static_cast<double>(pred)));

  int attempt = 0;
  bool post_quarantine = false;
  for (;;) {
    auto job = std::make_shared<Job>();
    job->model = model;
    job->slo = slo;
    job->ids.reserve(batch.size());
    job->inputs.reserve(batch.size());
    for (const QueuedRequest& qr : batch) {
      job->ids.push_back(qr.req.id);
      job->inputs.push_back(qr.req.input);  // copy: survives abandonment
    }
    {
      const std::lock_guard<std::mutex> lock(exec_mu_);
      jobs_.push_back(job);
    }
    exec_cv_.notify_one();

    bool finished = false;
    {
      std::unique_lock<std::mutex> jl(job->mu);
      finished = job->cv.wait_for(jl, std::chrono::nanoseconds(watchdog_ns),
                                  [&] { return job->done; });
    }
    if (!finished) {
      // Watchdog: abandon the straggler (its cancel flag unsticks an
      // injected stall; a late result is discarded with the job) and
      // recover every member individually on this thread.
      job->abandoned.store(true, std::memory_order_release);
      reg.counter("serve.wall.timeouts").inc();
      trace::instant(trace::Cat::kServe, "wallclock.watchdog_timeout", 0,
                     trace::Flow::kNone, "batch", n);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        inflight_pred_ns_ -= pred;
      }
      redispatch_per_image(batch, first_dispatch_ns, attempt);
      return;
    }
    if (!job->error) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        inflight_pred_ns_ -= pred;
      }
      record_success(batch, *job, attempt, first_dispatch_ns, pred);
      return;
    }

    // dispatch failed: walk the recovery ladder
    reg.counter(is_transient(job->error) ? "serve.wall.faults.transient"
                                         : "serve.wall.faults.other")
        .inc();
    ++attempt;
    if (attempt <= cfg_.max_retries) {
      reg.counter("serve.wall.retries").inc();
      sleep_ns(cfg_.retry_backoff_ns << (attempt - 1));
      continue;
    }
    const std::string detail = what_of(job->error);
    int fails = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      fails = ++consecutive_failures_[model];
    }
    if (fails >= cfg_.quarantine_after && !post_quarantine) {
      // N consecutive batch failures: distrust the cached/persisted
      // plans, compile fresh, and give the batch one more round
      quarantine_model(model);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        consecutive_failures_[model] = 0;
      }
      post_quarantine = true;
      attempt = 0;
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      inflight_pred_ns_ -= pred;
      for (const QueuedRequest& qr : batch) {
        record_terminal(qr, ServeOutcome::kFailed, ServeReason::kWorkerFault,
                        detail, first_dispatch_ns);
      }
    }
    return;
  }
}

void WallClockServer::quarantine_model(int model) {
  // The failed dispatch could have executed any of the model's fused
  // chunk plans (the single-image plan among them), so all of them are
  // distrusted together. The sharded plan only models a placement and
  // never executes. Recompiles are lazy — only configs that serve again
  // pay.
  metrics::registry().counter("serve.wall.quarantines").inc();
  trace::instant(trace::Cat::kServe, "wallclock.quarantine", 0,
                 trace::Flow::kNone, "model", model);
  for (const int b : dispatcher_.config().fused_batches) {
    store_.quarantine(model, b, 1);
  }
}

void WallClockServer::record_ok(const QueuedRequest& qr, WallServed w,
                                uint64_t exec_ns) {
  // mu_ must be held by the caller; `w` arrives with its execution fields
  // (mode, group, retries, stamps, prediction, output) filled in.
  auto& reg = metrics::registry();
  w.id = qr.req.id;
  w.model = qr.req.model;
  w.outcome = ServeOutcome::kOk;
  w.arrival_ns = qr.arrival_ns;
  w.deadline_abs_ns = qr.deadline_abs_ns;
  w.deadline_hit = w.completion_ns <= w.deadline_abs_ns;
  reg.counter("serve.wall.served_ok").inc();
  reg.counter(w.deadline_hit ? "serve.wall.deadline.hits"
                             : "serve.wall.deadline.misses")
      .inc();
  reg.histogram("serve.wall.latency_ns").observe(w.latency_ns());
  reg.histogram("serve.wall.exec_ns").observe(exec_ns);
  reg.histogram("serve.wall.modeled_exec_ns").observe(w.modeled_exec_ns);
  done_.push_back(std::move(w));
}

void WallClockServer::record_success(const std::vector<QueuedRequest>& batch,
                                     Job& job, int retries_used,
                                     uint64_t dispatch_ns, uint64_t pred_ns) {
  const uint64_t wall_exec = job.end_ns - job.start_ns;
  const int model = batch.front().req.model;
  const std::lock_guard<std::mutex> lock(mu_);
  // the fused chunks that just ran, in modeled cycles
  const uint64_t cycles =
      modeled_cycles_for(model, static_cast<int>(batch.size()));
  if (wall_exec > 0 && cycles > 0) {
    // prediction error of the estimate admission and the watchdog acted
    // on, before this measurement feeds the calibration
    const uint64_t diff = wall_exec > pred_ns ? wall_exec - pred_ns
                                              : pred_ns - wall_exec;
    metrics::registry()
        .histogram("serve.wall.model_error_pct")
        .observe(100 * diff / wall_exec);
    // calibration feedback: what a modeled cycle cost on the wall just now
    const double measured =
        static_cast<double>(wall_exec) / static_cast<double>(cycles);
    ns_per_cycle_ = 0.7 * ns_per_cycle_ + 0.3 * measured;
  }
  DECIMATE_CHECK(job.result.served.size() == batch.size(),
                 "dispatch result does not cover the batch");
  for (size_t i = 0; i < batch.size(); ++i) {
    Served& s = job.result.served[i];
    WallServed w;
    w.mode = s.stats.mode;
    w.group_size = s.stats.group_size;
    w.retries = retries_used;
    w.dispatch_ns = dispatch_ns;
    w.completion_ns = job.end_ns;
    w.modeled_exec_ns = pred_ns;
    w.output = std::move(s.output);
    record_ok(batch[i], std::move(w), wall_exec);
  }
  consecutive_failures_[model] = 0;
}

void WallClockServer::redispatch_per_image(std::vector<QueuedRequest>& batch,
                                           uint64_t first_dispatch_ns,
                                           int retries_used) {
  auto& reg = metrics::registry();
  trace::TraceScope span(trace::Cat::kServe, "wallclock.redispatch");
  span.arg("batch", static_cast<int64_t>(batch.size()));
  reg.counter("serve.wall.redispatches").inc(batch.size());
  // the whole batch failed as a unit, so each member re-runs alone on this
  // thread (plan already compiled at warm). run() is serial and writes no
  // engine state, so it is safe beside a straggler still inside the
  // executor's run_batch on the same engine.
  const CompiledPlan& single = store_.plan(batch.front().req.model, 1, 1);
  for (QueuedRequest& qr : batch) {
    std::exception_ptr last;
    bool ok = false;
    Tensor8 out;
    uint64_t exec_ns = 0;
    for (int a = 0; a <= cfg_.max_retries && !ok; ++a) {
      try {
        if (a > 0) {
          reg.counter("serve.wall.retries").inc();
          sleep_ns(cfg_.retry_backoff_ns << (a - 1));
        }
        const uint64_t t0 = now_ns();
        fault::on_site(fault::Site::kDispatchExec);
        out = dispatcher_.engine().run(single, qr.req.input).output;
        exec_ns = now_ns() - t0;
        ok = true;
      } catch (...) {
        last = std::current_exception();
      }
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (!ok) {
      record_terminal(qr, ServeOutcome::kFailed, ServeReason::kTimeout,
                      what_of(last), first_dispatch_ns);
      continue;
    }
    WallServed w;
    w.group_size = 1;  // alone on the unfused plan
    w.retries = retries_used;
    w.redispatched = true;
    w.dispatch_ns = first_dispatch_ns;
    w.completion_ns = now_ns();
    w.modeled_exec_ns = qr.predicted_exec_ns;  // admission's single-image
    w.output = std::move(out);
    record_ok(qr, std::move(w), exec_ns);
  }
}

void WallClockServer::executor_loop() {
  trace::set_thread_name("serve.executor");
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(exec_mu_);
      exec_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    if (job->abandoned.load(std::memory_order_acquire)) {
      // the serving thread already gave up on this job; nobody waits
      const std::lock_guard<std::mutex> jl(job->mu);
      job->done = true;
      continue;
    }
    job->start_ns = now_ns();
    // an injected stall inside this job wakes early once the watchdog
    // abandons it
    fault::set_cancel_flag(&job->abandoned);
    FormedBatch fb;
    fb.model = job->model;
    fb.dispatch_cycles = 0;  // modeled completions become batch-relative
    fb.requests.reserve(job->ids.size());
    for (size_t i = 0; i < job->ids.size(); ++i) {
      Request r;
      r.id = job->ids[i];
      r.model = job->model;
      r.arrival_cycles = 0;
      r.input = std::move(job->inputs[i]);
      fb.requests.push_back(std::move(r));
    }
    try {
      trace::TraceScope exec_span(trace::Cat::kServe, "wallclock.exec");
      exec_span.arg("batch", static_cast<int64_t>(fb.requests.size()));
      job->result = dispatcher_.dispatch(std::move(fb), job->slo);
    } catch (...) {
      job->error = std::current_exception();
    }
    fault::set_cancel_flag(nullptr);
    job->end_ns = now_ns();
    {
      const std::lock_guard<std::mutex> jl(job->mu);
      job->done = true;
    }
    job->cv.notify_all();
  }
}

}  // namespace decimate
