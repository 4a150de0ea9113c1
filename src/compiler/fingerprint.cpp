#include "compiler/fingerprint.hpp"

#include <span>

#include "trace/metrics.hpp"

namespace decimate {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

struct Fnv {
  uint64_t h = kFnvOffset;

  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= kFnvPrime;
    }
  }
  void u64(uint64_t v) { bytes(&v, sizeof(v)); }
  void i32(int32_t v) { bytes(&v, sizeof(v)); }
  template <typename T>
  void vec(const std::vector<T>& v) {
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void tensor(const T& t) {
    vec(t.shape());
    const auto f = t.flat();
    u64(f.size());
    if (!f.empty()) bytes(f.data(), f.size_bytes());
  }
};

}  // namespace

uint64_t graph_fingerprint(const Graph& graph) {
  // O(parameter bytes): counted so the serving path can prove it never
  // pays this after warm-up
  static metrics::Counter& scans =
      metrics::registry().counter("compiler.graph_fingerprints");
  scans.inc();
  Fnv f;
  f.i32(graph.size());
  for (const Node& node : graph.nodes()) {
    f.i32(node.id);
    f.i32(static_cast<int32_t>(node.op));
    f.u64(node.name.size());
    f.bytes(node.name.data(), node.name.size());
    f.vec(node.inputs);
    f.vec(node.out_shape);
    f.i32(node.conv.ix);
    f.i32(node.conv.iy);
    f.i32(node.conv.c);
    f.i32(node.conv.k);
    f.i32(node.conv.fx);
    f.i32(node.conv.fy);
    f.i32(node.conv.stride);
    f.i32(node.conv.pad);
    f.i32(node.fc.tokens);
    f.i32(node.fc.c);
    f.i32(node.fc.k);
    f.i32(node.rq.mult);
    f.i32(node.rq.shift);
    f.i32(node.rq2.mult);
    f.i32(node.rq2.shift);
    f.tensor(node.weights);
    f.tensor(node.bias);
    f.tensor(node.gamma);
    f.tensor(node.beta);
    f.vec(node.lut);
    f.vec(node.exp_lut);
    f.i32(node.transpose_b ? 1 : 0);
    f.i32(node.slice_begin);
    f.i32(node.slice_end);
  }
  return f.h;
}

uint64_t options_fingerprint(const CompileOptions& opt) {
  // host_threads, latency_cache_path and verify_plans are deliberately
  // absent: they change how a plan is produced or validated, never what
  // it contains.
  Fnv f;
  f.i32(opt.enable_sparse ? 1 : 0);
  f.i32(opt.enable_isa ? 1 : 0);
  f.i32(opt.pulpnn_dense ? 1 : 0);
  f.i32(opt.interleaved_weights ? 1 : 0);
  f.i32(opt.lockstep ? 1 : 0);
  f.i32(opt.xdec_forwarding ? 1 : 0);
  f.i32(opt.num_cores);
  f.i32(opt.batch);
  f.i32(opt.num_clusters);
  return f.h;
}

uint64_t plan_fingerprint(const Graph& graph, const CompileOptions& opt) {
  return plan_fingerprint_from(graph_fingerprint(graph), opt);
}

uint64_t plan_fingerprint_from(uint64_t graph_fp, const CompileOptions& opt) {
  Fnv f;
  f.u64(graph_fp);
  f.u64(options_fingerprint(opt));
  return f.h;
}

}  // namespace decimate
