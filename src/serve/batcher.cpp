#include "serve/batcher.hpp"

#include <algorithm>

#include "common/bitutil.hpp"
#include "common/check.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace decimate {

const char* to_string(FlushReason reason) {
  switch (reason) {
    case FlushReason::kFull: return "full";
    case FlushReason::kDeadline: return "deadline";
    case FlushReason::kDrain: return "drain";
  }
  return "?";
}

Batcher::Batcher(const SloConfig& slo) : slo_(slo) {
  DECIMATE_CHECK(slo_.max_batch >= 1,
                 "max_batch must be >= 1, got " << slo_.max_batch);
}

void Batcher::admit(Request r) {
  DECIMATE_CHECK(r.arrival_cycles >= last_arrival_,
                 "arrivals must be nondecreasing: got "
                     << r.arrival_cycles << " after " << last_arrival_);
  last_arrival_ = r.arrival_cycles;
  queues_[r.model].push_back(std::move(r));
  ++pending_;
  metrics::registry().gauge("serve.queue_depth").set(
      static_cast<int64_t>(pending_));
}

std::optional<FormedBatch> Batcher::try_form(
    uint64_t free_at, std::optional<uint64_t> next_arrival) {
  if (pending_ == 0) return std::nullopt;

  const size_t want = static_cast<size_t>(slo_.max_batch);
  FlushReason reason;
  uint64_t dispatch = 0;
  size_t take = 0;
  const std::deque<Request>* queue = nullptr;
  int model = 0;

  // A full batch flushes as soon as the engine and its last member are
  // both available — it is never blocked behind an older, still-forming
  // batch of another model. Among several full models, the one whose
  // batch was assembled first goes first.
  for (const auto& [m, q] : queues_) {
    if (q.size() < want) continue;
    const uint64_t ready = q[want - 1].arrival_cycles;
    if (queue == nullptr || ready < (*queue)[want - 1].arrival_cycles) {
      queue = &q;
      model = m;
    }
  }
  if (queue != nullptr) {
    reason = FlushReason::kFull;
    take = want;
    dispatch = std::max(free_at, (*queue)[want - 1].arrival_cycles);
  } else {
    // no full batch: FIFO across models — consider the model whose head
    // request is oldest
    for (const auto& [m, q] : queues_) {
      if (q.empty()) continue;
      if (queue == nullptr ||
          q.front().arrival_cycles < queue->front().arrival_cycles) {
        queue = &q;
        model = m;
      }
    }
    DECIMATE_CHECK(queue != nullptr, "pending count out of sync");

    const uint64_t deadline = saturating_add(queue->front().arrival_cycles,
                                             slo_.max_wait_cycles);
    // While the engine is busy past the deadline, later arrivals can
    // still join (continuous batching): the admission window is
    // whichever is later.
    const uint64_t admit_until = std::max(deadline, free_at);

    if (next_arrival && *next_arrival <= admit_until) {
      return std::nullopt;  // that request may join: admit it first
    } else if (next_arrival) {
      // proof: the next arrival is beyond the admission window, so the
      // membership is final — flush at the SLO deadline
      reason = FlushReason::kDeadline;
      take = queue->size();
      dispatch = std::max(free_at, deadline);
    } else {
      reason = FlushReason::kDrain;
      take = queue->size();
      dispatch = std::max(free_at, queue->back().arrival_cycles);
    }
  }

  FormedBatch batch;
  batch.model = model;
  batch.reason = reason;
  batch.dispatch_cycles = dispatch;
  batch.requests.reserve(take);
  std::deque<Request>& q = queues_[model];
  for (size_t i = 0; i < take; ++i) {
    batch.requests.push_back(std::move(q.front()));
    q.pop_front();
    --pending_;
  }
  {
    auto& reg = metrics::registry();
    reg.gauge("serve.queue_depth").set(static_cast<int64_t>(pending_));
    reg.histogram("serve.batch_size").observe(take);
    switch (reason) {
      case FlushReason::kFull: reg.counter("serve.flush.full").inc(); break;
      case FlushReason::kDeadline:
        reg.counter("serve.flush.deadline").inc();
        break;
      case FlushReason::kDrain: reg.counter("serve.flush.drain").inc(); break;
    }
  }
  trace::instant(trace::Cat::kBatcher, "batcher.flush", batch.requests[0].id,
                 trace::Flow::kStep, "batch_size",
                 static_cast<int64_t>(take), "reason", to_string(reason));
  return batch;
}

}  // namespace decimate
