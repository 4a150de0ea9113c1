#include "trace/trace.hpp"

namespace decimate::trace {

// Defined in every build: exporters and tests read the taxonomy even
// when recording is compiled out.
const char* cat_name(Cat cat) {
  switch (cat) {
    case Cat::kServe:
      return "serve";
    case Cat::kBatcher:
      return "batcher";
    case Cat::kDispatch:
      return "dispatch";
    case Cat::kExec:
      return "exec";
    case Cat::kKernel:
      return "kernel";
    case Cat::kPool:
      return "pool";
    case Cat::kArtifact:
      return "artifact";
    case Cat::kFault:
      return "fault";
  }
  return "?";
}

}  // namespace decimate::trace

#if DECIMATE_TRACE_ENABLED

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

namespace decimate::trace {

namespace {

std::atomic<bool> g_enabled{true};
std::atomic<size_t> g_ring_capacity{size_t{1} << 14};
std::atomic<uint32_t> g_next_tid{1};

// One per recording thread. Owned by the global registry (leaky, so spans
// survive their thread's exit); only the owner thread writes events.
struct RingBuffer {
  explicit RingBuffer(size_t cap)
      : capacity(cap), slots(cap), tid(g_next_tid.fetch_add(1)) {}

  const size_t capacity;
  std::vector<Event> slots;
  const uint32_t tid;
  // Total events ever pushed; slot index is head % capacity. Written by
  // the owner thread with release so exporters see completed slots.
  std::atomic<uint64_t> head{0};
  std::string thread_name;

  void push(const Event& e) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    slots[static_cast<size_t>(h % capacity)] = e;
    head.store(h + 1, std::memory_order_release);
  }
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<RingBuffer*> buffers;  // registration order; never removed
};

BufferRegistry& buffer_registry() {
  // leaky: reachable from a static pointer for the whole process, so
  // exported traces of finished threads stay valid and LSan stays quiet
  static BufferRegistry* instance = new BufferRegistry;
  return *instance;
}

RingBuffer& local_buffer() {
  thread_local RingBuffer* buf = [] {
    auto* b = new RingBuffer(g_ring_capacity.load(std::memory_order_relaxed));
    BufferRegistry& reg = buffer_registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

uint64_t epoch_ns() {
  static const uint64_t epoch = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return epoch;
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x", c);
      out += hex;
    } else {
      out += c;
    }
  }
}

void append_args(std::string& out, const Event& e) {
  out += "\"args\":{";
  bool first = true;
  if (e.cycles != 0) {
    out += "\"cycles\":" + std::to_string(e.cycles);
    first = false;
  }
  for (int i = 0; i < e.nargs; ++i) {
    if (!first) out += ',';
    out += '"';
    append_json_escaped(out, e.akey[i]);
    out += "\":" + std::to_string(e.aval[i]);
    first = false;
  }
  for (int i = 0; i < e.nsargs; ++i) {
    if (e.skey[i] == nullptr || e.sval[i] == nullptr) continue;
    if (!first) out += ',';
    out += '"';
    append_json_escaped(out, e.skey[i]);
    out += "\":\"";
    append_json_escaped(out, e.sval[i]);
    out += '"';
    first = false;
  }
  out += '}';
}

// ts/dur in fractional microseconds, the unit chrome://tracing expects.
std::string us(uint64_t ns) {
  std::string s = std::to_string(ns / 1000);
  s += '.';
  const uint64_t frac = ns % 1000;
  s += static_cast<char>('0' + frac / 100);
  s += static_cast<char>('0' + frac / 10 % 10);
  s += static_cast<char>('0' + frac % 10);
  return s;
}

void append_event_json(std::string& out, const Event& e) {
  out += "{\"name\":\"";
  append_json_escaped(out, e.name);
  out += "\",\"cat\":\"";
  out += cat_name(e.cat);
  out += "\",\"ph\":\"";
  out += e.ph;
  out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid);
  out += ",\"ts\":" + us(e.ts_ns);
  if (e.ph == 'X') out += ",\"dur\":" + us(e.dur_ns);
  if (e.ph == 'i') out += ",\"s\":\"t\"";
  out += ',';
  append_args(out, e);
  out += '}';
  // a flow event binds to the enclosing slice at the same ts/tid; emit it
  // as a sibling record so Perfetto draws the request arrow
  if (e.flow != Flow::kNone && e.flow_id != 0) {
    const char fph = e.flow == Flow::kStart ? 's'
                     : e.flow == Flow::kStep ? 't'
                                             : 'f';
    out += ",\n{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"";
    out += fph;
    out += "\",\"id\":" + std::to_string(e.flow_id);
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    out += ",\"ts\":" + us(e.ts_ns);
    if (fph == 'f') out += ",\"bp\":\"e\"";
    out += '}';
  }
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

uint64_t now_ns() {
  // epoch first: its one-time init reads the clock, so sampling `now`
  // before it would put the very first timestamp BEFORE the epoch
  const uint64_t epoch = epoch_ns();
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch;
}

void set_ring_capacity(size_t events) {
  g_ring_capacity.store(events > 0 ? events : 1, std::memory_order_relaxed);
}

void set_thread_name(const char* name) {
  RingBuffer& buf = local_buffer();
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);  // exporters read names
  buf.thread_name = name;
}

void emit(Event e) {
  if (!enabled()) return;
  RingBuffer& buf = local_buffer();
  e.tid = buf.tid;
  buf.push(e);
}

void clear() {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (RingBuffer* b : reg.buffers) b->head.store(0, std::memory_order_release);
}

size_t event_count() {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  size_t n = 0;
  for (const RingBuffer* b : reg.buffers) {
    const uint64_t h = b->head.load(std::memory_order_acquire);
    n += static_cast<size_t>(h < b->capacity ? h : b->capacity);
  }
  return n;
}

void for_each_event(const std::function<void(const Event&)>& fn) {
  BufferRegistry& reg = buffer_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const RingBuffer* b : reg.buffers) {
    const uint64_t head = b->head.load(std::memory_order_acquire);
    const uint64_t held = head < b->capacity ? head : b->capacity;
    for (uint64_t i = head - held; i < head; ++i) {
      fn(b->slots[static_cast<size_t>(i % b->capacity)]);
    }
  }
}

std::string export_chrome_string() {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  {
    BufferRegistry& reg = buffer_registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    out +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"decimate\"}}";
    first = false;
    for (const RingBuffer* b : reg.buffers) {
      out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
             std::to_string(b->tid) + ",\"args\":{\"name\":\"";
      append_json_escaped(
          out, b->thread_name.empty() ? "thread" : b->thread_name.c_str());
      out += " (" + std::to_string(b->tid) + ")\"}}";
    }
  }
  for_each_event([&](const Event& e) {
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, e);
  });
  out += "\n]}\n";
  return out;
}

bool export_chrome(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << export_chrome_string();
  return static_cast<bool>(f);
}

void instant(Cat cat, const char* name, uint64_t flow_request_id,
             Flow flow_phase, const char* akey, int64_t aval, const char* skey,
             const char* sval) {
  if (!enabled()) return;
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts_ns = now_ns();
  if (flow_phase != Flow::kNone) {
    e.flow = flow_phase;
    e.flow_id = flow_request_id + 1;
  }
  if (akey != nullptr) {
    e.akey[0] = akey;
    e.aval[0] = aval;
    e.nargs = 1;
  }
  if (skey != nullptr) {
    e.skey[0] = skey;
    e.sval[0] = sval;
    e.nsargs = 1;
  }
  emit(e);
}

}  // namespace decimate::trace

#endif  // DECIMATE_TRACE_ENABLED
