#pragma once
// Batcher: SLO-aware dynamic batch formation on the modeled-cycle
// timeline.
//
// Requests are admitted in nondecreasing arrival order and queue FIFO per
// model (a batch always serves one model — mixed streams form separate
// batches). A batch flushes when the first of these holds:
//
//  - kFull:     a queue holds max_batch requests — dispatch as soon as
//               the engine and the last member are both available. A
//               full batch of any model takes priority over an older,
//               still-forming batch of another; partial batches flush in
//               oldest-head order.
//  - kDeadline: the oldest request has waited max_wait_cycles and it is
//               *provable* that no further request can join before then
//               (the next unadmitted arrival — supplied by the caller —
//               lies beyond the flush point). Dispatch at the deadline.
//  - kDrain:    the trace is exhausted (no next arrival); nothing more
//               can arrive, so waiting buys nothing — dispatch
//               immediately.
//
// try_form returns nullopt when no batch can be decided yet: either there
// is nothing pending, or the next arrival would join the forming batch
// (admit it first). Because decisions depend only on arrival cycles,
// batch formation is deterministic for a given trace.

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "serve/serving.hpp"

namespace decimate {

enum class FlushReason : uint8_t { kFull, kDeadline, kDrain };

const char* to_string(FlushReason reason);

/// A dispatch-ready batch: same-model requests in arrival order plus the
/// cycle at which the Dispatcher starts executing them.
struct FormedBatch {
  int model = 0;
  std::vector<Request> requests;
  uint64_t dispatch_cycles = 0;
  FlushReason reason = FlushReason::kFull;
};

class Batcher {
 public:
  explicit Batcher(const SloConfig& slo);

  /// Queue a request. Arrivals must be nondecreasing across all admits.
  void admit(Request r);

  bool has_pending() const { return pending_ != 0; }
  size_t pending() const { return pending_; }

  /// Try to form the next batch. `free_at` is when the engine is next
  /// idle; `next_arrival` is the arrival cycle of the earliest
  /// not-yet-admitted request, nullopt when the trace is exhausted.
  /// Returns nullopt when undecidable (see file comment).
  std::optional<FormedBatch> try_form(uint64_t free_at,
                                      std::optional<uint64_t> next_arrival);

 private:
  SloConfig slo_;
  std::map<int, std::deque<Request>> queues_;  // per model, arrival order
  size_t pending_ = 0;
  uint64_t last_arrival_ = 0;
};

}  // namespace decimate
