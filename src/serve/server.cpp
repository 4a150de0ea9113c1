#include "serve/server.hpp"

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace decimate {

const char* to_string(ServeMode mode) {
  switch (mode) {
    case ServeMode::kBatchFused: return "batch_fused";
    case ServeMode::kShardedSingle: return "sharded_single";
    case ServeMode::kDataParallel: return "data_parallel";
  }
  return "?";
}

Server::Server(Dispatcher& dispatcher, const SloConfig& slo)
    : dispatcher_(dispatcher), batcher_(slo), slo_(slo) {}

void Server::submit(Request r) {
  const uint64_t id = r.id;
  const auto arrival = static_cast<int64_t>(r.arrival_cycles);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    DECIMATE_CHECK(!closed_, "submit after close");
    // checked against the last submission ever, not the inbox tail: the
    // serving loop may already have drained earlier requests, and a late
    // out-of-order arrival must fail here, at the offending submit
    DECIMATE_CHECK(r.arrival_cycles >= last_submitted_,
                   "arrivals must be submitted in nondecreasing order: got "
                       << r.arrival_cycles << " after " << last_submitted_);
    last_submitted_ = r.arrival_cycles;
    inbox_.push_back(std::move(r));
    metrics::registry().gauge("serve.inbox_depth").add(1);
  }
  metrics::registry().counter("serve.requests_submitted").inc();
  // the request's flow starts here, on the submitting thread
  trace::instant(trace::Cat::kServe, "request.arrival", id,
                 trace::Flow::kStart, "arrival_cycles", arrival);
  cv_.notify_all();
}

void Server::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<Served> Server::serve() {
  trace::set_thread_name("serve.loop");
  trace::TraceScope serve_span(trace::Cat::kServe, "server.serve");
  std::vector<Served> done;
  batches_ = 0;
  uint64_t free_at = 0;
  for (;;) {
    // snapshot what is known about the future: the earliest unadmitted
    // arrival, and whether anything more can ever arrive
    std::optional<uint64_t> next_arrival;
    bool drained;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!inbox_.empty()) next_arrival = inbox_.front().arrival_cycles;
      drained = closed_ && inbox_.empty();
    }

    if (auto batch = batcher_.try_form(free_at, next_arrival, drained)) {
      DispatchResult result = dispatcher_.dispatch(std::move(*batch), slo_);
      ++batches_;
      free_at = std::max(free_at, result.finish_cycles);
      for (Served& s : result.served) {
        trace::instant(trace::Cat::kServe, "request.reply", s.stats.id,
                       trace::Flow::kEnd, "latency_cycles",
                       static_cast<int64_t>(s.stats.latency_cycles()));
        done.push_back(std::move(s));
      }
      continue;
    }

    // undecidable: admit the next request if one is waiting, finish if
    // the stream is over, otherwise block for more information
    std::unique_lock<std::mutex> lock(mu_);
    if (!inbox_.empty()) {
      Request r = std::move(inbox_.front());
      inbox_.pop_front();
      lock.unlock();
      metrics::registry().gauge("serve.inbox_depth").add(-1);
      trace::instant(trace::Cat::kServe, "request.enqueue", r.id,
                     trace::Flow::kStep);
      batcher_.admit(std::move(r));
      continue;
    }
    if (closed_) {
      DECIMATE_CHECK(!batcher_.has_pending(),
                     "serve loop stalled with pending requests");
      break;
    }
    cv_.wait(lock,
             [this] { return closed_ || !inbox_.empty(); });
  }
  return done;
}

}  // namespace decimate
