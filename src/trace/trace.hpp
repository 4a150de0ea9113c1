#pragma once
// Runtime span tracing: per-thread lock-free ring buffers of nested spans
// exported as Chrome trace-event JSON (opens directly in Perfetto or
// chrome://tracing).
//
// Recording model:
//  - TraceScope is an RAII span: construction stamps the steady-clock
//    start, destruction stamps the duration and pushes ONE complete
//    ('X') event into the calling thread's ring buffer. Nesting falls out
//    of interval containment per thread track — no begin/end pairing to
//    keep consistent. Spans may carry up to two named integer args, one
//    named string arg, modeled cycles, and a flow point.
//  - instant() records a zero-duration ('i') event the same way.
//  - Flow: a request's journey across threads (submit thread -> serve
//    loop -> pool workers) is stitched by flow events keyed on the
//    request id; Perfetto draws them as arrows between the spans they
//    attach to.
//  - Every name/arg-key/string-arg must be a pointer that outlives the
//    export (string literals, or owned strings like Node::name that live
//    as long as their Graph). Nothing is copied on the hot path.
//
// Threading: each thread owns its buffer (created on first event,
// registered once under a mutex, kept alive for the process so spans of
// joined threads still export). Recording is wait-free: one slot write
// plus a release store of the head index; the ring wraps, overwriting the
// oldest events, so memory stays bounded however long a server runs.
// Export expects recording threads to be quiescent (or tracing disabled);
// a racing writer can tear at most the ring tail.
//
// Cost: a span is two steady_clock reads and a ~128-byte slot write when
// tracing is runtime-enabled, one relaxed atomic load when disabled, and
// ZERO when compiled out — without -DDECIMATE_TRACE=ON (CMake option
// DECIMATE_TRACE) TraceScope is an empty type, every function below is an
// empty inline, and no tracing code or data exists in the binary; builds
// are behavior-identical either way.

#include <cstdint>
#include <functional>
#include <string>

#if defined(DECIMATE_TRACE)
#define DECIMATE_TRACE_ENABLED 1
#else
#define DECIMATE_TRACE_ENABLED 0
#endif

namespace decimate::trace {

/// Stable span categories — one per runtime layer ("cat" in the JSON).
enum class Cat : uint8_t {
  kServe,     // serve_trace / WallClockServer: request lifecycle, serve loop
  kBatcher,   // Batcher: flush decisions
  kDispatch,  // Dispatcher: mode choice, chunking
  kExec,      // ExecutionEngine: run / run_batch
  kKernel,    // per-PlanStep kernel execution
  kPool,      // WorkerPool: task execution and parked time
  kArtifact,  // PlanRegistry: artifact load / mmap / verify / publish
  kFault,     // FaultInjector: injected faults and recovery actions
};

const char* cat_name(Cat cat);

/// Flow-event phase attached to a span or instant.
enum class Flow : uint8_t { kNone = 0, kStart, kStep, kEnd };

/// One recorded event (a ring-buffer slot). POD by design.
struct Event {
  const char* name = nullptr;
  Cat cat = Cat::kExec;
  char ph = 'X';  // 'X' complete span, 'i' instant
  Flow flow = Flow::kNone;
  uint32_t tid = 0;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t cycles = 0;   // modeled cycles, 0 = not applicable
  uint64_t flow_id = 0;  // request id + 1; 0 = no flow
  int nargs = 0;
  const char* akey[2] = {nullptr, nullptr};
  int64_t aval[2] = {0, 0};
  int nsargs = 0;
  const char* skey[2] = {nullptr, nullptr};
  const char* sval[2] = {nullptr, nullptr};
};

#if DECIMATE_TRACE_ENABLED

/// Runtime collection toggle. Compiled-in builds start ENABLED, so a
/// traced binary records by default; flip it off around sections that
/// must not record (e.g. the overhead gate's baseline timing).
bool enabled();
void set_enabled(bool on);

/// Steady-clock nanoseconds since the trace epoch (first use).
uint64_t now_ns();

/// Ring capacity (events per thread) for buffers created AFTER this call;
/// existing buffers keep their size. Default 1 << 14.
void set_ring_capacity(size_t events);

/// Name the calling thread's track in the exported trace.
void set_thread_name(const char* name);

/// Append a fully-formed event to the calling thread's ring (tid is
/// stamped here). Recording must be enabled, or the event is dropped.
void emit(Event e);

/// Drop every recorded event (buffers stay registered). Call while
/// recording threads are quiescent.
void clear();

/// Total events currently held across all thread rings.
size_t event_count();

/// Visit every recorded event, oldest-first per thread, threads in
/// registration order. For tests and custom exporters.
void for_each_event(const std::function<void(const Event&)>& fn);

/// Serialize everything recorded as Chrome trace-event JSON: one track
/// per thread (thread_name metadata), complete/instant events with args
/// ("cycles" included when set), and s/t/f flow events stitching request
/// ids across threads.
std::string export_chrome_string();

/// Write export_chrome_string() to `path`; false on I/O failure.
bool export_chrome(const std::string& path);

class TraceScope {
 public:
  TraceScope(Cat cat, const char* name) {
    if (enabled()) {
      live_ = true;
      e_.cat = cat;
      e_.name = name;
      e_.ts_ns = now_ns();
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (live_) {
      e_.dur_ns = now_ns() - e_.ts_ns;
      emit(e_);
    }
  }

  void arg(const char* key, int64_t v) {
    if (live_ && e_.nargs < 2) {
      e_.akey[e_.nargs] = key;
      e_.aval[e_.nargs] = v;
      ++e_.nargs;
    }
  }
  void sarg(const char* key, const char* v) {
    if (live_ && e_.nsargs < 2) {
      e_.skey[e_.nsargs] = key;
      e_.sval[e_.nsargs] = v;
      ++e_.nsargs;
    }
  }
  void cycles(uint64_t c) {
    if (live_) e_.cycles = c;
  }
  void flow(uint64_t request_id, Flow phase) {
    if (live_) {
      e_.flow_id = request_id + 1;
      e_.flow = phase;
    }
  }

 private:
  Event e_;
  bool live_ = false;
};

/// Zero-duration event; args mirror TraceScope's.
void instant(Cat cat, const char* name, uint64_t flow_request_id = 0,
             Flow flow_phase = Flow::kNone, const char* akey = nullptr,
             int64_t aval = 0, const char* skey = nullptr,
             const char* sval = nullptr);

#else  // !DECIMATE_TRACE_ENABLED — every entry point is an empty inline

inline bool enabled() { return false; }
inline void set_enabled(bool) {}
inline uint64_t now_ns() { return 0; }
inline void set_ring_capacity(size_t) {}
inline void set_thread_name(const char*) {}
inline void emit(Event) {}
inline void clear() {}
inline size_t event_count() { return 0; }
inline void for_each_event(const std::function<void(const Event&)>&) {}
inline std::string export_chrome_string() { return {}; }
inline bool export_chrome(const std::string&) { return false; }

class TraceScope {
 public:
  TraceScope(Cat, const char*) {}
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  void arg(const char*, int64_t) {}
  void sarg(const char*, const char*) {}
  void cycles(uint64_t) {}
  void flow(uint64_t, Flow) {}
};

inline void instant(Cat, const char*, uint64_t = 0, Flow = Flow::kNone,
                    const char* = nullptr, int64_t = 0, const char* = nullptr,
                    const char* = nullptr) {}

#endif  // DECIMATE_TRACE_ENABLED

}  // namespace decimate::trace
