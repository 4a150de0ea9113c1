#include "exec/worker_pool.hpp"

#include "serve/fault.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace decimate {

namespace {
// Depth of pool-task execution on this thread, across ALL pools. A run()
// issued from inside a task would either deadlock (same pool: job_mu_ is
// held by the outer job's caller) or oversubscribe the machine (another
// pool's threads stack on top of this pool's). Nested submissions
// therefore execute inline on the submitting thread — the engine's
// intra-image splits degrade gracefully to serial when they land inside
// run_batch's per-image tasks.
thread_local int tl_task_depth = 0;
}  // namespace

bool WorkerPool::in_task() { return tl_task_depth > 0; }

WorkerPool::WorkerPool(int threads) {
  workers_.reserve(static_cast<size_t>(threads > 0 ? threads : 0));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  metrics::registry().counter("exec.pool.threads_started").inc(
      workers_.size());
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& th : workers_) th.join();
}

void WorkerPool::claim_tasks() {
  ++tl_task_depth;
  for (int i = next_.fetch_add(1); i < n_; i = next_.fetch_add(1)) {
    trace::TraceScope task_span(trace::Cat::kPool, "pool.task");
    task_span.arg("index", i);
    try {
      // Chaos hook: inside the try, so an injected worker exception takes
      // the same first-exception path a real task failure would.
      fault::on_site(fault::Site::kWorkerTask);
      (*fn_)(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(err_mu_);
      if (!err_) err_ = std::current_exception();
    }
  }
  --tl_task_depth;
}

void WorkerPool::worker_loop() {
  trace::set_thread_name("pool.worker");
  uint64_t seen = 0;
  for (;;) {
    {
      // parked time is a first-class span so pool idleness shows up in
      // the trace alongside the tasks it separates
      trace::TraceScope parked(trace::Cat::kPool, "pool.parked");
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    claim_tasks();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--busy_ == 0) cv_done_.notify_all();
    }
  }
}

void WorkerPool::run(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (tl_task_depth > 0) {
    // nested submission from inside a pool task: run inline (see
    // tl_task_depth above). Exceptions propagate directly — the caller
    // is a task body, whose own pool already collects them.
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::lock_guard<std::mutex> job(job_mu_);
  if (workers_.empty()) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_.store(0);
    busy_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();
  claim_tasks();  // the caller works too
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return busy_ == 0; });
    fn_ = nullptr;
  }
  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> lock(err_mu_);
    err = err_;
    err_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace decimate
