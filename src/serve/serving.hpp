#pragma once
// Shared types of the serving runtime (see dispatcher.hpp for the
// overview).
//
// serve_trace's time is modeled ISS cycles, not wall clock: requests
// carry an arrival cycle, the Batcher's wait/flush decisions and the
// Dispatcher's mode choice are computed from the plans' precomputed cycle
// reports, and ServedStats reports queue wait / completion on the same
// virtual timeline. That keeps every serving decision — and therefore
// every served output — bit-reproducible for a given arrival trace.
// WallClockServer (wallclock.hpp) reuses these types on real time.
//
// ServedStats describes the modeled placement: its mode, group size and
// completion cycles are what the Dispatcher modeled for the chosen
// ServeMode, while the host runs every batch as fused chunks.

#include <cstdint>
#include <string>

#include "nn/tensor.hpp"

namespace decimate {

/// The modeled cluster placement the Dispatcher chose for a formed
/// batch. The host executes every batch the same way (fused chunks), so
/// the mode describes the modeled MCU only.
enum class ServeMode : uint8_t {
  kBatchFused,     // run_batch on one cluster, batch-fused plan chunks
  kShardedSingle,  // each image sharded across all clusters in turn
  kDataParallel,   // whole images round-robin across clusters
};

const char* to_string(ServeMode mode);

/// The serving contract the Batcher and Dispatcher enforce, in modeled
/// cycles.
struct SloConfig {
  /// A partial batch flushes once its oldest request has waited this long.
  uint64_t max_wait_cycles = 0;
  /// Per-request end-to-end target (completion - arrival); a request whose
  /// modeled latency exceeds it is a deadline miss. The Dispatcher picks
  /// the cheapest mode that keeps every request inside this budget.
  uint64_t deadline_cycles = UINT64_MAX;
  /// A batch dispatches as soon as it holds this many requests.
  int max_batch = 1;
};

/// One single-image inference request. `model` is the id PlanStore
/// returned from add_model; arrival cycles must be nondecreasing along a
/// trace (the virtual clock only moves forward).
struct Request {
  uint64_t id = 0;
  int model = 0;
  uint64_t arrival_cycles = 0;
  Tensor8 input;
};

/// Per-request serving report, all on the modeled cycle timeline.
struct ServedStats {
  uint64_t id = 0;
  int model = 0;
  ServeMode mode = ServeMode::kBatchFused;
  int group_size = 1;  // images co-placed with this one on the modeled
                       // clusters (fused chunk size; 1 for sharded;
                       // formed batch for data-parallel)
  uint64_t arrival_cycles = 0;
  uint64_t dispatch_cycles = 0;    // when its batch started executing
  uint64_t completion_cycles = 0;  // when its output was ready
  bool deadline_hit = true;

  uint64_t queue_wait_cycles() const {
    return dispatch_cycles - arrival_cycles;
  }
  uint64_t exec_cycles() const { return completion_cycles - dispatch_cycles; }
  uint64_t latency_cycles() const {
    return completion_cycles - arrival_cycles;
  }
};

/// A completed request: stats plus the network output (bit-exact with a
/// sequential ExecutionEngine::run of the same input).
struct Served {
  ServedStats stats;
  Tensor8 output;
};

}  // namespace decimate
