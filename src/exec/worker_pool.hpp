#pragma once
// Persistent worker pool for the execution engine.
//
// ExecutionEngine::run_batch used to build (and join) a std::vector of
// std::thread per call, so a serving loop paid thread spawn/teardown for
// every formed batch. A WorkerPool keeps its threads parked on a condition
// variable between jobs: run(n, fn) hands out task indices [0, n) to the
// workers (work-claiming, same pipeline semantics as before) plus the
// calling thread, and returns when every index has been processed. A
// one-image run_batch reuses the same pool for its intra-image splits.
//
// Thread safety: run() may be called from several threads; calls
// serialize on an internal mutex (jobs never interleave). The first
// exception a task throws is rethrown on the caller after the job drains.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace decimate {

class WorkerPool {
 public:
  /// A pool with `threads` parked worker threads. The calling thread of
  /// run() also executes tasks, so a pool of T threads runs jobs with
  /// T + 1 way parallelism. threads == 0 is valid (run() degenerates to
  /// an inline loop).
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Execute fn(i) for every i in [0, n), distributing indices across the
  /// pool's threads and the caller. Blocks until all n tasks finished;
  /// rethrows the first task exception (remaining tasks still drain, as
  /// claimed indices must complete before the job ends).
  ///
  /// Nesting: run() called from INSIDE a pool task (this pool or any
  /// other) executes fn inline on the calling thread instead of
  /// submitting — same-pool nesting would deadlock on the job mutex and
  /// cross-pool nesting would oversubscribe the machine. The guard is a
  /// thread-local task depth, so it also covers indirect nesting (e.g.
  /// the engine's intra-image splits inside run_batch's image tasks).
  void run(int n, const std::function<void(int)>& fn);

  /// Is the calling thread currently inside a pool task (any pool)?
  /// Nested run() calls from such a context execute inline.
  static bool in_task();

  /// Worker threads owned by the pool (excluding the caller).
  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();
  void claim_tasks();

  std::mutex job_mu_;  // serializes concurrent run() calls

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* fn_ = nullptr;
  int n_ = 0;
  std::atomic<int> next_{0};
  uint64_t generation_ = 0;
  int busy_ = 0;  // workers still inside the current generation
  bool stop_ = false;

  std::mutex err_mu_;
  std::exception_ptr err_;

  std::vector<std::thread> workers_;
};

}  // namespace decimate
