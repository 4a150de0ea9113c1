#include "serve/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "serve/fault.hpp"
#include "shard/shard_planner.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace decimate {

namespace {

// ServedStats bookkeeping, mirrored onto the metrics registry after a
// batch finishes executing (the fused fallback path may restamp
// completions, so the final stats are the source of truth).
void record_served_metrics(const DispatchResult& out) {
  auto& reg = metrics::registry();
  switch (out.mode) {
    case ServeMode::kBatchFused:
      reg.counter("serve.mode.batch_fused").inc();
      break;
    case ServeMode::kShardedSingle:
      reg.counter("serve.mode.sharded_single").inc();
      break;
    case ServeMode::kDataParallel:
      reg.counter("serve.mode.data_parallel").inc();
      break;
  }
  for (const Served& s : out.served) {
    reg.histogram("serve.queue_wait_cycles").observe(
        s.stats.queue_wait_cycles());
    reg.histogram("serve.exec_cycles").observe(s.stats.exec_cycles());
    reg.histogram("serve.latency_cycles").observe(s.stats.latency_cycles());
    reg.histogram("serve.group_size").observe(
        static_cast<uint64_t>(s.stats.group_size));
    reg.counter(s.stats.deadline_hit ? "serve.deadline.hits"
                                     : "serve.deadline.misses")
        .inc();
  }
}

// The data-parallel completion model: modeled finish of each of `n`
// images assigned round-robin to `clusters` clusters.
std::vector<uint64_t> data_parallel_completions(const CompiledPlan& plan,
                                                int n, int clusters) {
  DECIMATE_CHECK(clusters >= 1, "need at least one cluster");
  std::vector<uint64_t> completions(static_cast<size_t>(std::max(n, 0)));
  // image i is the (i / clusters)-th image of cluster i % clusters; it
  // finishes when its cluster's pipelined prefix of that many images does
  for (int i = 0; i < n; ++i) {
    const int position = i / clusters + 1;
    completions[static_cast<size_t>(i)] =
        ExecutionEngine::modeled_batch_cycles(plan, position);
  }
  return completions;
}

// Per-cluster busy cycles of the same round-robin placement (each
// cluster's pipelined stream over its own images) — the consumed-cycles
// side of the model, the mode's cost.
std::vector<uint64_t> data_parallel_busy_cycles(const CompiledPlan& plan,
                                                int n, int clusters) {
  DECIMATE_CHECK(clusters >= 1, "need at least one cluster");
  std::vector<uint64_t> busy(static_cast<size_t>(clusters), 0);
  for (int c = 0; c < clusters && c < n; ++c) {
    const int images = (n - c - 1) / clusters + 1;  // round-robin share
    busy[static_cast<size_t>(c)] =
        ExecutionEngine::modeled_batch_cycles(plan, images);
  }
  return busy;
}

}  // namespace

const char* to_string(ServeMode mode) {
  switch (mode) {
    case ServeMode::kBatchFused: return "batch_fused";
    case ServeMode::kShardedSingle: return "sharded_single";
    case ServeMode::kDataParallel: return "data_parallel";
  }
  return "?";
}

Dispatcher::Dispatcher(PlanStore& store, const DispatchConfig& cfg)
    : store_(store), cfg_(cfg) {
  DECIMATE_CHECK(cfg_.num_clusters >= 1,
                 "num_clusters must be >= 1, got " << cfg_.num_clusters);
  // 1 must always be available so any batch size decomposes
  if (std::find(cfg_.fused_batches.begin(), cfg_.fused_batches.end(), 1) ==
      cfg_.fused_batches.end()) {
    cfg_.fused_batches.push_back(1);
  }
  std::sort(cfg_.fused_batches.begin(), cfg_.fused_batches.end());
  for (const int b : cfg_.fused_batches) {
    DECIMATE_CHECK(b >= 1, "fused batch sizes must be >= 1, got " << b);
  }
}

std::vector<int> Dispatcher::fused_chunks(int n) const {
  std::vector<int> chunks;
  while (n > 0) {
    // largest configured fused size that still fits (sizes are sorted and
    // contain 1, so this always makes progress)
    int best = 1;
    for (const int b : cfg_.fused_batches) {
      if (b <= n) best = b;
    }
    chunks.push_back(best);
    n -= best;
  }
  return chunks;
}

void Dispatcher::warm(int model) {
  ModelCosts table;
  for (const int b : cfg_.fused_batches) {
    table.chunk_cycles[b] =
        ExecutionEngine::modeled_batch_cycles(store_.plan(model, b, 1), b);
  }
  // the shard schedule is only read here: the table keeps what
  // kShardedSingle needs and the schedule itself is dropped
  const ShardPlan sp = ShardPlanner(cfg_.num_clusters)
                           .plan(store_.plan(model, 1, cfg_.num_clusters));
  table.shard_critical_cycles = sp.critical_path_cycles;
  table.shard_busy_cycles =
      std::accumulate(sp.cluster_busy_cycles.begin(),
                      sp.cluster_busy_cycles.end(), uint64_t{0});
  costs_[model] = std::move(table);
}

const Dispatcher::ModelCosts& Dispatcher::costs(int model) const {
  const auto it = costs_.find(model);
  DECIMATE_CHECK(it != costs_.end(), "model " << model << " was not warm()ed");
  return it->second;
}

uint64_t Dispatcher::fused_cycles(int model, int n) const {
  const ModelCosts& table = costs(model);
  uint64_t cycles = 0;
  for (const int b : fused_chunks(n)) cycles += table.chunk_cycles.at(b);
  return cycles;
}

std::vector<ModeEval> Dispatcher::evaluate(
    int model, int batch_size, const std::vector<uint64_t>& arrivals,
    uint64_t dispatch_cycles, const SloConfig& slo) {
  DECIMATE_CHECK(batch_size >= 1, "empty batch");
  DECIMATE_CHECK(arrivals.size() == static_cast<size_t>(batch_size),
                 "one arrival per request expected");
  const size_t n = static_cast<size_t>(batch_size);
  const ModelCosts& table = costs(model);

  const auto finalize = [&](ModeEval& e) {
    e.deadline_hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t latency = e.completion_cycles[i] - arrivals[i];
      e.deadline_hits += latency <= slo.deadline_cycles ? 1 : 0;
      e.worst_latency_cycles = std::max(e.worst_latency_cycles, latency);
      e.makespan_cycles = std::max(e.makespan_cycles,
                                   e.completion_cycles[i] - dispatch_cycles);
    }
    e.feasible = e.deadline_hits == batch_size;
  };

  std::vector<ModeEval> evals;

  // kBatchFused: chunks run back-to-back on one cluster; each member
  // completes with its chunk
  {
    ModeEval e;
    e.mode = ServeMode::kBatchFused;
    e.completion_cycles.resize(n);
    e.group_size.resize(n);
    uint64_t at = dispatch_cycles;
    size_t next = 0;
    for (const int b : fused_chunks(batch_size)) {
      const uint64_t dur = table.chunk_cycles.at(b);
      at += dur;
      e.cost_cycles += dur;
      for (int j = 0; j < b; ++j, ++next) {
        e.completion_cycles[next] = at;
        e.group_size[next] = b;
      }
    }
    finalize(e);
    evals.push_back(std::move(e));
  }

  // kShardedSingle: each image's latency is the shard critical path;
  // images run one after another across all clusters
  {
    ModeEval e;
    e.mode = ServeMode::kShardedSingle;
    e.completion_cycles.resize(n);
    e.group_size.assign(n, 1);
    for (size_t i = 0; i < n; ++i) {
      e.completion_cycles[i] =
          dispatch_cycles +
          table.shard_critical_cycles * static_cast<uint64_t>(i + 1);
    }
    e.cost_cycles = table.shard_busy_cycles * static_cast<uint64_t>(n);
    finalize(e);
    evals.push_back(std::move(e));
  }

  // kDataParallel: whole images round-robin across clusters
  {
    ModeEval e;
    e.mode = ServeMode::kDataParallel;
    e.group_size.assign(n, batch_size);
    const CompiledPlan& plan = store_.plan(model, 1, 1);
    e.completion_cycles =
        data_parallel_completions(plan, batch_size, cfg_.num_clusters);
    for (uint64_t& c : e.completion_cycles) c += dispatch_cycles;
    for (const uint64_t busy :
         data_parallel_busy_cycles(plan, batch_size, cfg_.num_clusters)) {
      e.cost_cycles += busy;
    }
    finalize(e);
    evals.push_back(std::move(e));
  }

  return evals;
}

size_t Dispatcher::choose(const std::vector<ModeEval>& evals) {
  DECIMATE_CHECK(!evals.empty(), "no modes to choose from");
  // among SLO-feasible modes, fewest consumed cluster cycles wins; with
  // no feasible mode, most deadline hits then smallest worst latency.
  // Strict comparisons keep ties on the earlier mode (fused first), so
  // the choice is deterministic.
  size_t best = evals.size();
  for (size_t i = 0; i < evals.size(); ++i) {
    if (!evals[i].feasible) continue;
    if (best == evals.size() || evals[i].cost_cycles < evals[best].cost_cycles)
      best = i;
  }
  if (best != evals.size()) return best;
  best = 0;
  for (size_t i = 1; i < evals.size(); ++i) {
    if (evals[i].deadline_hits > evals[best].deadline_hits ||
        (evals[i].deadline_hits == evals[best].deadline_hits &&
         evals[i].worst_latency_cycles < evals[best].worst_latency_cycles)) {
      best = i;
    }
  }
  return best;
}

std::vector<Tensor8> Dispatcher::run_chunk_with_fallback(
    ExecutionEngine& engine, const CompiledPlan& chunk_plan,
    const CompiledPlan& single_plan, std::span<const Tensor8> inputs,
    int& group_size, std::vector<uint64_t>& completion_offsets) {
  const int b = static_cast<int>(inputs.size());
  std::vector<Tensor8> outputs;
  outputs.reserve(static_cast<size_t>(b));
  completion_offsets.assign(static_cast<size_t>(b), 0);
  try {
    BatchRun run = engine.run_batch(chunk_plan, inputs);
    group_size = b;
    // a fused chunk completes together
    const uint64_t dur = ExecutionEngine::modeled_batch_cycles(chunk_plan, b);
    for (auto& o : completion_offsets) o = dur;
    for (auto& r : run.runs) outputs.push_back(std::move(r.output));
  } catch (const BatchMismatchError& e) {
    // Only this structured error is recoverable: it proves the inputs
    // are fine and the plan merely covers a different fused batch (a
    // mis-warmed or externally shared store), so re-running image by
    // image on the unfused plan is always safe. A bare Error could be
    // any real failure and must keep propagating.
    metrics::registry().counter("serve.fallbacks").inc();
    trace::TraceScope fb_span(trace::Cat::kServe, "dispatcher.fallback");
    fb_span.sarg("reason", "batch_mismatch");
    fb_span.arg("fused_for", e.fused_batch());
    fb_span.arg("got", e.got());
    group_size = 1;
    uint64_t at = 0;
    for (int i = 0; i < b; ++i) {
      outputs.push_back(engine.run(single_plan, inputs[static_cast<size_t>(i)])
                            .output);
      at += ExecutionEngine::modeled_batch_cycles(single_plan, 1);
      completion_offsets[static_cast<size_t>(i)] = at;  // serial: per image
    }
  }
  return outputs;
}

void Dispatcher::exec_fused(FormedBatch& batch, const SloConfig& slo,
                            DispatchResult& out) {
  const int n = static_cast<int>(batch.requests.size());
  size_t next = 0;
  // Execution-side cursor. On the happy path it reproduces the modeled
  // kBatchFused completions already stamped from evaluate(); once a
  // fused-batch mismatch forces the per-image fallback, everything from
  // that point on is restamped from the cursor so ServedStats reports
  // what actually executed. Other placements were never modeled as these
  // chunks, so their stats stay as modeled.
  const bool modeled_fused = out.mode == ServeMode::kBatchFused;
  uint64_t at = batch.dispatch_cycles;
  bool restamp = false;
  const CompiledPlan& single = store_.plan(batch.model, 1, 1);
  for (const int b : fused_chunks(n)) {
    std::vector<Tensor8> inputs;
    inputs.reserve(static_cast<size_t>(b));
    for (int j = 0; j < b; ++j) {
      inputs.push_back(
          std::move(batch.requests[next + static_cast<size_t>(j)].input));
    }
    int group = b;
    std::vector<uint64_t> offsets;
    std::vector<Tensor8> outputs =
        run_chunk_with_fallback(engine_, store_.plan(batch.model, b, 1),
                                single, inputs, group, offsets);
    restamp = modeled_fused && (restamp || group != b);
    for (size_t j = 0; j < outputs.size(); ++j) {
      out.served[next].output = std::move(outputs[j]);
      if (restamp) {
        ServedStats& s = out.served[next].stats;
        s.group_size = group;
        s.completion_cycles = at + offsets[j];
        s.deadline_hit = s.latency_cycles() <= slo.deadline_cycles;
      }
      ++next;
    }
    at += offsets.empty() ? 0 : offsets.back();
  }
  DECIMATE_CHECK(next == batch.requests.size(),
                 "fused chunks did not cover the batch");
}

DispatchResult Dispatcher::dispatch(FormedBatch batch, const SloConfig& slo) {
  const int n = static_cast<int>(batch.requests.size());
  DECIMATE_CHECK(n >= 1, "cannot dispatch an empty batch");
  trace::TraceScope dispatch_span(trace::Cat::kDispatch,
                                  "dispatcher.dispatch");
  dispatch_span.arg("batch", n);
  dispatch_span.flow(batch.requests[0].id, trace::Flow::kStep);
  std::vector<uint64_t> arrivals;
  arrivals.reserve(static_cast<size_t>(n));
  for (const Request& r : batch.requests) {
    arrivals.push_back(r.arrival_cycles);
  }

  const ModeEval pick = [&] {
    trace::TraceScope eval_span(trace::Cat::kDispatch, "dispatcher.evaluate");
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ModeEval> evals =
        evaluate(batch.model, n, arrivals, batch.dispatch_cycles, slo);
    static metrics::Histogram& evaluate_ns =
        metrics::registry().histogram("serve.evaluate_ns");
    evaluate_ns.observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    return std::move(evals[choose(evals)]);
  }();
  dispatch_span.sarg("mode", to_string(pick.mode));

  DispatchResult out;
  out.mode = pick.mode;
  out.served.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    ServedStats& s = out.served[i].stats;
    const Request& r = batch.requests[i];
    s.id = r.id;
    s.model = r.model;
    s.mode = pick.mode;
    s.group_size = pick.group_size[i];
    s.arrival_cycles = r.arrival_cycles;
    s.dispatch_cycles = batch.dispatch_cycles;
    s.completion_cycles = pick.completion_cycles[i];
    s.deadline_hit = s.latency_cycles() <= slo.deadline_cycles;
  }

  {
    // the host runs fused chunks whatever placement was modeled
    trace::TraceScope exec_span(trace::Cat::kDispatch, "dispatcher.execute");
    exec_span.sarg("mode", to_string(pick.mode));
    fault::on_site(fault::Site::kDispatchExec);
    exec_fused(batch, slo, out);
  }
  // after execution: the fused path may have restamped completions on a
  // mismatch recovery, so the finish time comes from the final stats
  for (const Served& s : out.served) {
    out.finish_cycles = std::max(out.finish_cycles, s.stats.completion_cycles);
  }
  record_served_metrics(out);
  return out;
}

std::vector<Served> serve_trace(Dispatcher& dispatcher, const SloConfig& slo,
                                std::vector<Request> trace) {
  trace::TraceScope serve_span(trace::Cat::kServe, "serve_trace");
  metrics::registry().counter("serve.requests_submitted").inc(trace.size());
  Batcher batcher(slo);
  std::vector<Served> done;
  done.reserve(trace.size());
  uint64_t free_at = 0;
  size_t next = 0;
  for (;;) {
    const std::optional<uint64_t> next_arrival =
        next < trace.size() ? std::optional(trace[next].arrival_cycles)
                            : std::nullopt;
    if (auto batch = batcher.try_form(free_at, next_arrival)) {
      DispatchResult result = dispatcher.dispatch(std::move(*batch), slo);
      free_at = std::max(free_at, result.finish_cycles);
      for (Served& s : result.served) {
        trace::instant(trace::Cat::kServe, "request.reply", s.stats.id,
                       trace::Flow::kEnd, "latency_cycles",
                       static_cast<int64_t>(s.stats.latency_cycles()));
        done.push_back(std::move(s));
      }
    } else if (next < trace.size()) {
      // nothing to flush yet: admit the next arrival (its flow starts
      // here)
      Request& r = trace[next++];
      trace::instant(trace::Cat::kServe, "request.arrival", r.id,
                     trace::Flow::kStart, "arrival_cycles",
                     static_cast<int64_t>(r.arrival_cycles));
      batcher.admit(std::move(r));
    } else {
      // without a next arrival try_form drains, so nothing is pending
      DECIMATE_CHECK(!batcher.has_pending(),
                     "serve loop stalled with pending requests");
      break;
    }
  }
  return done;
}

}  // namespace decimate
