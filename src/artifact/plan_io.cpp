#include "artifact/plan_io.hpp"

#include <bit>
#include <cstring>

#include "common/serde.hpp"
#include "compiler/fingerprint.hpp"
#include "exec/tile_runner.hpp"
#include "nn/host_kernels.hpp"

namespace decimate::artifact {

// The weight blob is raw element bytes that SharedBuf views reinterpret
// in place; that is only the serialized little-endian encoding on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "plan artifacts alias multi-byte payloads in place");

namespace {

constexpr char kMagic[4] = {'D', 'P', 'L', 'A'};

enum Section : uint8_t {
  kGraphSection = 0,
  kPlanSection = 1,
  kLatencySection = 2,
  kWeightSection = 3,
  kSectionCount = 4,
};


// ---------------------------------------------------------------------------
// Weight blob: 64-byte-aligned payload entries referenced by (offset,
// count) pairs from the graph/plan sections.
// ---------------------------------------------------------------------------

class BlobWriter {
 public:
  /// Append `n` elements of `p`, 64-byte aligned; returns the offset
  /// relative to the weight-section start.
  template <typename T>
  uint64_t add(const T* p, size_t n) {
    w_.align(64);
    const uint64_t off = w_.pos();
    if (n != 0) w_.bytes(p, n * sizeof(T));
    return off;
  }

  serde::Writer& writer() { return w_; }

 private:
  serde::Writer w_;
};

/// One blob reference as stored in the structured sections.
template <typename T>
void write_ref(serde::Writer& w, BlobWriter& blob, const SharedBuf<T>& buf) {
  w.u64(blob.add(buf.data(), buf.size()));
  w.u64(buf.size());
}

/// Resolves blob references to SharedBuf views aliasing the mapping.
class BlobReader {
 public:
  BlobReader(std::span<const uint8_t> blob, std::shared_ptr<const void> keep,
             const std::string& what)
      : blob_(blob), keep_(std::move(keep)), what_(what) {}

  template <typename T>
  SharedBuf<T> read_ref(serde::Reader& r) const {
    const uint64_t off = r.u64();
    const uint64_t count = r.u64();
    if (count == 0) return {};
    DECIMATE_CHECK(off % 64 == 0,
                   what_ << ": misaligned weight-section payload at " << off);
    // count is bounded by division: count * sizeof(T) could wrap
    DECIMATE_CHECK(off <= blob_.size() &&
                       count <= (blob_.size() - off) / sizeof(T),
                   what_ << ": weight-section payload of " << count
                         << " elements at " << off << " outside section of "
                         << blob_.size() << " bytes");
    return SharedBuf<T>::view(
        reinterpret_cast<const T*>(blob_.data() + off), count, keep_);
  }

 private:
  std::span<const uint8_t> blob_;
  std::shared_ptr<const void> keep_;
  const std::string& what_;
};

// ---------------------------------------------------------------------------
// Tensors. Small tensors (dense master weights, gamma/beta) are stored
// inline in the graph section and copied at load — Tensor owns its bytes.
// Gemm biases go through the weight section (the issue's bias payload).
// ---------------------------------------------------------------------------

template <typename T>
void write_tensor(serde::Writer& w, const Tensor<T>& t) {
  w.u32(static_cast<uint32_t>(t.shape().size()));
  for (const int d : t.shape()) w.i32(d);
  w.u64(static_cast<uint64_t>(t.numel()) * sizeof(T));
  if (t.numel() != 0) w.bytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(T));
}

/// A serialized tensor shape: rank, then one int32 per dim.
std::vector<int> read_shape(serde::Reader& r) {
  std::vector<int> shape(r.count<uint32_t>(sizeof(int32_t)));
  for (auto& d : shape) d = r.i32();
  return shape;
}

/// Check a shape against its payload of `elems` elements before the
/// Tensor is built: every dim positive and their product exactly `elems`
/// (the running product never passes `elems`, so it cannot overflow).
void check_shape(const serde::Reader& r, const std::vector<int>& shape,
                 uint64_t elems) {
  uint64_t n = 1;
  for (const int d : shape) {
    DECIMATE_CHECK(d > 0 && n <= elems / static_cast<uint64_t>(d),
                   r.what() << ": tensor shape exceeds its payload");
    n *= static_cast<uint64_t>(d);
  }
  DECIMATE_CHECK(n == elems, r.what() << ": tensor payload size mismatch");
}

template <typename T>
Tensor<T> read_tensor(serde::Reader& r) {
  std::vector<int> shape = read_shape(r);
  const uint64_t nbytes = r.u64();
  if (shape.empty()) {
    DECIMATE_CHECK(nbytes == 0, r.what() << ": rank-0 tensor with payload");
    return {};
  }
  DECIMATE_CHECK(nbytes % sizeof(T) == 0,
                 r.what() << ": tensor payload size mismatch");
  check_shape(r, shape, nbytes / sizeof(T));
  const auto b = r.take(static_cast<size_t>(nbytes));
  Tensor<T> t(std::move(shape));
  std::memcpy(t.data(), b.data(), b.size());
  return t;
}

/// Tensor with the payload in the weight blob: shape inline, bytes by
/// reference. Loaded tensors COPY the payload (Tensor owns storage);
/// only the SharedBuf arrays alias the mapping.
template <typename T>
void write_tensor_blob(serde::Writer& w, BlobWriter& blob,
                       const Tensor<T>& t) {
  w.u32(static_cast<uint32_t>(t.shape().size()));
  for (const int d : t.shape()) w.i32(d);
  w.u64(blob.add(t.data(), static_cast<size_t>(t.numel())));
  w.u64(static_cast<uint64_t>(t.numel()));
}

template <typename T>
Tensor<T> read_tensor_blob(serde::Reader& r, const BlobReader& blob) {
  std::vector<int> shape = read_shape(r);
  const SharedBuf<T> payload = blob.read_ref<T>(r);
  if (shape.empty()) {
    DECIMATE_CHECK(payload.size() == 0,
                   r.what() << ": rank-0 tensor with payload");
    return {};
  }
  check_shape(r, shape, payload.size());
  Tensor<T> t(std::move(shape));
  std::memcpy(t.data(), payload.data(), payload.size() * sizeof(T));
  return t;
}

template <typename T>
void write_byte_vec(serde::Writer& w, const std::vector<T>& v) {
  w.pod_vec(v);
}

template <typename T>
std::vector<T> read_byte_vec(serde::Reader& r) {
  static_assert(sizeof(T) == 1);
  const uint64_t n = r.u64();
  const auto b = r.take(static_cast<size_t>(n));
  std::vector<T> v(b.size());
  if (!v.empty()) std::memcpy(v.data(), b.data(), b.size());
  return v;
}

// ---------------------------------------------------------------------------
// Graph section
// ---------------------------------------------------------------------------

bool is_gemm(OpType op) {
  return op == OpType::kConv2d || op == OpType::kFc || op == OpType::kMatmul;
}

void write_node(serde::Writer& w, BlobWriter& blob, const Node& n) {
  w.i32(n.id);
  w.u8(static_cast<uint8_t>(n.op));
  w.str(n.name);
  w.u32(static_cast<uint32_t>(n.inputs.size()));
  for (const int i : n.inputs) w.i32(i);
  w.u32(static_cast<uint32_t>(n.out_shape.size()));
  for (const int d : n.out_shape) w.i32(d);
  w.i32(n.conv.ix);
  w.i32(n.conv.iy);
  w.i32(n.conv.c);
  w.i32(n.conv.k);
  w.i32(n.conv.fx);
  w.i32(n.conv.fy);
  w.i32(n.conv.stride);
  w.i32(n.conv.pad);
  w.i32(n.fc.tokens);
  w.i32(n.fc.c);
  w.i32(n.fc.k);
  w.i32(n.rq.mult);
  w.i32(n.rq.shift);
  w.i32(n.rq2.mult);
  w.i32(n.rq2.shift);
  write_tensor(w, n.weights);
  // gemm bias rides in the weight section next to the packed payloads
  w.boolean(is_gemm(n.op));
  if (is_gemm(n.op)) {
    write_tensor_blob(w, blob, n.bias);
  } else {
    write_tensor(w, n.bias);
  }
  write_tensor(w, n.gamma);
  write_tensor(w, n.beta);
  write_byte_vec(w, n.lut);
  write_byte_vec(w, n.exp_lut);
  w.boolean(n.transpose_b);
  w.i32(n.slice_begin);
  w.i32(n.slice_end);
}

Node read_node(serde::Reader& r, const BlobReader& blob) {
  Node n;
  n.id = r.i32();
  n.op = static_cast<OpType>(r.u8());
  n.name = r.str();
  n.inputs.resize(r.count<uint32_t>(sizeof(int32_t)));
  for (auto& i : n.inputs) i = r.i32();
  n.out_shape = read_shape(r);
  n.conv.ix = r.i32();
  n.conv.iy = r.i32();
  n.conv.c = r.i32();
  n.conv.k = r.i32();
  n.conv.fx = r.i32();
  n.conv.fy = r.i32();
  n.conv.stride = r.i32();
  n.conv.pad = r.i32();
  n.fc.tokens = r.i32();
  n.fc.c = r.i32();
  n.fc.k = r.i32();
  n.rq.mult = r.i32();
  n.rq.shift = r.i32();
  n.rq2.mult = r.i32();
  n.rq2.shift = r.i32();
  n.weights = read_tensor<int8_t>(r);
  if (r.boolean()) {
    n.bias = read_tensor_blob<int32_t>(r, blob);
  } else {
    n.bias = read_tensor<int32_t>(r);
  }
  n.gamma = read_tensor<int8_t>(r);
  n.beta = read_tensor<int8_t>(r);
  n.lut = read_byte_vec<int8_t>(r);
  n.exp_lut = read_byte_vec<uint8_t>(r);
  n.transpose_b = r.boolean();
  n.slice_begin = r.i32();
  n.slice_end = r.i32();
  return n;
}

void write_graph(serde::Writer& w, BlobWriter& blob, const Graph& g) {
  w.u32(static_cast<uint32_t>(g.size()));
  for (const Node& n : g.nodes()) write_node(w, blob, n);
}

std::shared_ptr<Graph> read_graph(serde::Reader& r, const BlobReader& blob) {
  const uint32_t count = r.u32();
  DECIMATE_CHECK(count >= 1, r.what() << ": graph without an input node");
  const Node input = read_node(r, blob);
  DECIMATE_CHECK(input.id == 0 && input.op == OpType::kInput,
                 r.what() << ": node 0 is not the input placeholder");
  auto g = std::make_shared<Graph>(input.out_shape);
  for (uint32_t i = 1; i < count; ++i) {
    Node n = read_node(r, blob);
    DECIMATE_CHECK(n.id == static_cast<int>(i),
                   r.what() << ": node ids out of order");
    g->add(std::move(n));
  }
  return g;
}

// ---------------------------------------------------------------------------
// Plan section
// ---------------------------------------------------------------------------

void write_options(serde::Writer& w, const CompileOptions& o) {
  // exactly the plan-shaping fields options_fingerprint() folds in;
  // verify_plans / latency_cache_path are runtime knobs of the loading
  // process, not plan content
  w.boolean(o.enable_sparse);
  w.boolean(o.enable_isa);
  w.boolean(o.pulpnn_dense);
  w.boolean(o.interleaved_weights);
  w.boolean(o.lockstep);
  w.boolean(o.xdec_forwarding);
  w.i32(o.num_cores);
  w.i32(o.batch);
  w.i32(o.num_clusters);
}

CompileOptions read_options(serde::Reader& r) {
  CompileOptions o;
  o.enable_sparse = r.boolean();
  o.enable_isa = r.boolean();
  o.pulpnn_dense = r.boolean();
  o.interleaved_weights = r.boolean();
  o.lockstep = r.boolean();
  o.xdec_forwarding = r.boolean();
  o.num_cores = r.i32();
  o.batch = r.i32();
  o.num_clusters = r.i32();
  return o;
}

void write_conv_tiles(serde::Writer& w, const ConvTilePlan& t) {
  w.i32(t.oy_t);
  w.i32(t.k_t);
  w.boolean(t.k_outer);
  w.i64(t.l1_bytes);
  w.i32(t.n_oy);
  w.i32(t.n_k);
  w.i64(t.dma_in_bytes);
  w.i64(t.dma_w_bytes);
  w.i64(t.dma_out_bytes);
  w.boolean(t.double_buffered);
}

ConvTilePlan read_conv_tiles(serde::Reader& r) {
  ConvTilePlan t;
  t.oy_t = r.i32();
  t.k_t = r.i32();
  t.k_outer = r.boolean();
  t.l1_bytes = r.i64();
  t.n_oy = r.i32();
  t.n_k = r.i32();
  t.dma_in_bytes = r.i64();
  t.dma_w_bytes = r.i64();
  t.dma_out_bytes = r.i64();
  t.double_buffered = r.boolean();
  return t;
}

void write_fc_tiles(serde::Writer& w, const FcTilePlan& t) {
  w.i32(t.tok_t);
  w.i32(t.k_t);
  w.boolean(t.k_outer);
  w.i64(t.l1_bytes);
  w.i32(t.n_tok);
  w.i32(t.n_k);
  w.i64(t.dma_in_bytes);
  w.i64(t.dma_w_bytes);
  w.i64(t.dma_out_bytes);
  w.boolean(t.double_buffered);
}

FcTilePlan read_fc_tiles(serde::Reader& r) {
  FcTilePlan t;
  t.tok_t = r.i32();
  t.k_t = r.i32();
  t.k_outer = r.boolean();
  t.l1_bytes = r.i64();
  t.n_tok = r.i32();
  t.n_k = r.i32();
  t.dma_in_bytes = r.i64();
  t.dma_w_bytes = r.i64();
  t.dma_out_bytes = r.i64();
  t.double_buffered = r.boolean();
  return t;
}

void write_report(serde::Writer& w, const LayerReport& rep) {
  w.str(rep.name);
  w.str(rep.impl);
  w.i64(rep.macs);
  w.u64(rep.compute_cycles);
  w.u64(rep.dma_cycles);
  w.u64(rep.weight_dma_cycles);
  w.u64(rep.total_cycles);
  w.i64(rep.weight_bytes);
  w.i32(rep.tiles);
  w.f64(rep.bits_per_weight);
}

LayerReport read_report(serde::Reader& r) {
  LayerReport rep;
  rep.name = r.str();
  rep.impl = r.str();
  rep.macs = r.i64();
  rep.compute_cycles = r.u64();
  rep.dma_cycles = r.u64();
  rep.weight_dma_cycles = r.u64();
  rep.total_cycles = r.u64();
  rep.weight_bytes = r.i64();
  rep.tiles = r.i32();
  rep.bits_per_weight = r.f64();
  return rep;
}

void write_step(serde::Writer& w, BlobWriter& blob, const PlanStep& s) {
  w.i32(s.node_id);
  w.u8(static_cast<uint8_t>(s.op));
  w.u8(static_cast<uint8_t>(s.choice.kind));
  w.i32(s.choice.m);
  write_conv_tiles(w, s.conv_tiles);
  write_fc_tiles(w, s.fc_tiles);
  w.boolean(s.has_packed);
  if (s.has_packed) {
    const NmPacked& p = s.packed;
    w.i32(p.m);
    w.i32(p.rows);
    w.i32(p.cols);
    w.i32(p.nz_per_row);
    w.i32(p.nz_padded);
    w.u8(static_cast<uint8_t>(p.layout));
    w.i32(p.values_row_bytes);
    w.i32(p.offsets_row_bytes);
    write_ref(w, blob, p.values);
    write_ref(w, blob, p.offsets);
  }
  w.u8(static_cast<uint8_t>(s.weight_region));
  // host dispatch: arrays by weight-section reference; the instance index
  // is host-specific and re-selected at load
  w.u8(static_cast<uint8_t>(s.host.impl));
  w.i32(s.host.m);
  write_ref(w, blob, s.host.row_start);
  write_ref(w, blob, s.host.col);
  write_ref(w, blob, s.host.val);
  w.u64(s.tile_costs.size());
  for (const TileCost& tc : s.tile_costs) {
    w.u64(tc.compute);
    w.u64(tc.dma_in);
    w.u64(tc.dma_out);
  }
  w.boolean(s.pipelined);
  w.u64(s.serial_cycles);
  w.boolean(s.batch_fused);
  w.u8(static_cast<uint8_t>(s.shard_axis));
  w.u64(s.tiles_meta.size());
  for (const ShardTile& t : s.tiles_meta) {
    w.i32(t.a_s);
    w.i32(t.a_e);
    w.i32(t.k_s);
    w.i32(t.k_e);
    w.i64(t.out_bytes);
    w.u64(t.in_fetch_cycles);
    w.u64(t.w_fetch_cycles);
    w.boolean(t.loads_input);
    w.boolean(t.loads_weights);
  }
  write_report(w, s.report);
}

// Serialized sizes of the per-tile records write_step emits: three u64
// cycle counts; four int32 ranges, out_bytes, two u64 fetch costs and
// two flags.
constexpr size_t kTileCostBytes = 3 * 8;
constexpr size_t kShardTileBytes = 4 * 4 + 3 * 8 + 2;

/// The fewest bytes write_step can emit (no payload, tiles or names):
/// what every step a plan section counts occupies at least.
size_t min_step_bytes() {
  static const size_t bytes = [] {
    serde::Writer w;
    BlobWriter blob;
    write_step(w, blob, PlanStep{});
    return w.pos();
  }();
  return bytes;
}

PlanStep read_step(serde::Reader& r, const BlobReader& blob,
                   const Graph& graph) {
  PlanStep s;
  s.node_id = r.i32();
  s.op = static_cast<OpType>(r.u8());
  s.choice.kind = static_cast<KernelKind>(r.u8());
  s.choice.m = r.i32();
  s.conv_tiles = read_conv_tiles(r);
  s.fc_tiles = read_fc_tiles(r);
  s.has_packed = r.boolean();
  if (s.has_packed) {
    NmPacked& p = s.packed;
    p.m = r.i32();
    p.rows = r.i32();
    p.cols = r.i32();
    p.nz_per_row = r.i32();
    p.nz_padded = r.i32();
    p.layout = static_cast<NmLayout>(r.u8());
    p.values_row_bytes = r.i32();
    p.offsets_row_bytes = r.i32();
    p.values = blob.read_ref<int8_t>(r);
    p.offsets = blob.read_ref<uint8_t>(r);
  }
  s.weight_region = static_cast<MemRegion>(r.u8());
  s.host.impl = static_cast<HostImpl>(r.u8());
  s.host.m = r.i32();
  s.host.row_start = blob.read_ref<int32_t>(r);
  s.host.col = blob.read_ref<uint16_t>(r);
  s.host.val = blob.read_ref<int8_t>(r);
  s.tile_costs.resize(r.count<uint64_t>(kTileCostBytes));
  for (TileCost& tc : s.tile_costs) {
    tc.compute = r.u64();
    tc.dma_in = r.u64();
    tc.dma_out = r.u64();
  }
  s.pipelined = r.boolean();
  s.serial_cycles = r.u64();
  s.batch_fused = r.boolean();
  s.shard_axis = static_cast<ShardAxis>(r.u8());
  s.tiles_meta.resize(r.count<uint64_t>(kShardTileBytes));
  for (ShardTile& t : s.tiles_meta) {
    t.a_s = r.i32();
    t.a_e = r.i32();
    t.k_s = r.i32();
    t.k_e = r.i32();
    t.out_bytes = r.i64();
    t.in_fetch_cycles = r.u64();
    t.w_fetch_cycles = r.u64();
    t.loads_input = r.boolean();
    t.loads_weights = r.boolean();
  }
  s.report = read_report(r);

  // Rehydrate the two host-process bindings that are never serialized:
  // the (kind, M) kernel program (a static singleton) and the host
  // kernel-instance index (a position in THIS host's instance registry).
  if (is_gemm(s.op)) {
    s.program = &TileRunner::program_for(s.choice.kind, s.choice.m);
    const Node& node = graph.node(s.node_id);
    if (s.host.impl != HostImpl::kRefFallback) {
      if (s.op == OpType::kConv2d) {
        s.host.instance =
            host_select_instance_for_conv(s.host.impl, node.conv, s.host.m);
      } else {
        s.host.instance = host_select_instance_for_fc(
            s.host.impl, node.fc.tokens, node.fc.c, node.fc.k, s.host.m);
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Header / sections
// ---------------------------------------------------------------------------

struct SectionEntry {
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

struct Header {
  uint32_t version = 0;
  uint64_t plan_fp = 0;
  uint64_t graph_fp = 0;
  SectionEntry sections[kSectionCount];
};

/// Parse the fixed header (no content validation beyond magic/size).
Header read_header(std::span<const uint8_t> bytes, const std::string& what) {
  DECIMATE_CHECK(bytes.size() >= kHeaderBytes,
                 what << ": too short for a plan artifact ("
                      << bytes.size() << " bytes)");
  serde::Reader r(bytes, what);
  const auto magic = r.take(sizeof(kMagic));
  DECIMATE_CHECK(std::memcmp(magic.data(), kMagic, sizeof(kMagic)) == 0,
                 what << ": bad magic (not a plan artifact)");
  Header h;
  h.version = r.u32();
  h.plan_fp = r.u64();
  h.graph_fp = r.u64();
  const uint32_t count = r.u32();
  DECIMATE_CHECK(count == kSectionCount,
                 what << ": unexpected section count " << count);
  for (auto& s : h.sections) {
    r.u8();  // section id, positional
    s.offset = r.u64();
    s.size = r.u64();
    s.crc = r.u32();
  }
  return h;
}

std::span<const uint8_t> section_span(std::span<const uint8_t> bytes,
                                      const SectionEntry& s) {
  return bytes.subspan(static_cast<size_t>(s.offset),
                       static_cast<size_t>(s.size));
}

}  // namespace

std::vector<uint8_t> serialize_plan(const CompiledPlan& plan) {
  DECIMATE_CHECK(plan.graph != nullptr, "cannot serialize a plan without a graph");

  // sections are built against a shared weight blob, then assembled
  BlobWriter blob;
  serde::Writer graph_sec;
  write_graph(graph_sec, blob, *plan.graph);

  serde::Writer plan_sec;
  write_options(plan_sec, plan.options);
  plan_sec.u8(static_cast<uint8_t>(plan.weight_region));
  plan_sec.i64(plan.weight_bytes);
  plan_sec.i64(plan.total_macs);
  plan_sec.u64(plan.total_cycles);
  plan_sec.u32(static_cast<uint32_t>(plan.steps.size()));
  for (const PlanStep& s : plan.steps) write_step(plan_sec, blob, s);

  serde::Writer lat_sec;
  if (plan.latencies) {
    plan.latencies->append_records(lat_sec);
  } else {
    lat_sec.u64(0);
  }

  serde::Writer out;
  out.bytes(kMagic, sizeof(kMagic));
  out.u32(kFormatVersion);
  out.u64(plan_fingerprint(*plan.graph, plan.options));
  out.u64(graph_fingerprint(*plan.graph));
  out.u32(kSectionCount);
  size_t table_pos[kSectionCount];
  for (uint8_t id = 0; id < kSectionCount; ++id) {
    out.u8(id);
    table_pos[id] = out.pos();
    out.u64(0);  // offset, patched below
    out.u64(0);  // size
    out.u32(0);  // crc
  }
  const size_t header_crc_pos = out.pos();
  out.u32(0);  // header crc, patched last
  DECIMATE_CHECK(out.pos() == kHeaderBytes, "plan artifact header drifted");

  const serde::Writer* sections[kSectionCount] = {
      &graph_sec, &plan_sec, &lat_sec, &blob.writer()};
  for (uint8_t id = 0; id < kSectionCount; ++id) {
    // the weight section is 64-byte aligned in the file so its 64-byte-
    // aligned entries stay aligned through a (page-aligned) mmap; other
    // sections get the same treatment for free
    out.align(64);
    const uint64_t off = out.pos();
    const auto& buf = sections[id]->buffer();
    out.bytes(buf.data(), buf.size());
    out.patch_u64(table_pos[id], off);
    out.patch_u64(table_pos[id] + 8, buf.size());
    out.patch_u32(table_pos[id] + 16, serde::crc32(buf));
  }
  out.patch_u32(header_crc_pos,
                serde::crc32(std::span<const uint8_t>(out.buffer())
                                 .first(header_crc_pos)));
  return out.take();
}

ArtifactInfo peek_info(std::span<const uint8_t> bytes,
                       const std::string& what) {
  const Header h = read_header(bytes, what);
  ArtifactInfo info;
  info.version = h.version;
  info.plan_fingerprint = h.plan_fp;
  info.graph_fingerprint = h.graph_fp;
  info.weight_section_bytes = h.sections[kWeightSection].size;
  info.total_bytes = bytes.size();
  return info;
}

VerifyReport verify_artifact(std::span<const uint8_t> bytes,
                             const std::string& what) {
  VerifyReport report;
  auto fail = [&](const char* check, std::string msg) {
    report.findings.push_back(
        {VerifySeverity::kError, check, 0, std::move(msg)});
  };

  ++report.checks_run;  // artifact.magic
  if (bytes.size() < kHeaderBytes) {
    fail("artifact.magic", "file too short for a plan artifact (" +
                               std::to_string(bytes.size()) + " bytes)");
    return report;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    fail("artifact.magic", "bad magic: not a plan artifact");
    return report;
  }
  const Header h = read_header(bytes, what);
  if (h.version != kFormatVersion) {
    fail("artifact.magic",
         "format version " + std::to_string(h.version) + ", this build reads " +
             std::to_string(kFormatVersion));
    return report;  // a different version's table cannot be trusted
  }

  // artifact.crc over the header itself before trusting the table
  ++report.checks_run;
  const size_t header_crc_pos = kHeaderBytes - 4;
  serde::Reader crc_r(bytes.subspan(header_crc_pos, 4), what);
  if (serde::crc32(bytes.first(header_crc_pos)) != crc_r.u32()) {
    fail("artifact.crc", "header CRC mismatch");
    return report;
  }

  ++report.checks_run;  // artifact.bounds
  uint64_t prev_end = kHeaderBytes;
  bool bounds_ok = true;
  for (const SectionEntry& s : h.sections) {
    if (s.offset < prev_end || s.offset > bytes.size() ||
        s.size > bytes.size() - s.offset) {
      fail("artifact.bounds",
           "section [" + std::to_string(s.offset) + ", +" +
               std::to_string(s.size) + ") outside file of " +
               std::to_string(bytes.size()) + " bytes or overlapping");
      bounds_ok = false;
      break;
    }
    prev_end = s.offset + s.size;
  }
  if (!bounds_ok) return report;

  // per-section CRCs; the weight-section CRC is what catches bit flips in
  // the mmap-shared payload
  for (const SectionEntry& s : h.sections) {
    ++report.checks_run;
    if (serde::crc32(section_span(bytes, s)) != s.crc) {
      fail("artifact.crc",
           "section at offset " + std::to_string(s.offset) +
               " CRC mismatch (corrupt artifact)");
    }
  }
  return report;
}

namespace {

CompiledPlan load_plan_impl(std::span<const uint8_t> bytes,
                            std::shared_ptr<const void> keepalive,
                            const std::string& what,
                            std::shared_ptr<TileLatencyCache> latencies) {
  VerifyReport admission = verify_artifact(bytes, what);
  if (!admission.ok()) throw VerifyError(std::move(admission));
  const Header h = read_header(bytes, what);

  const auto weights = section_span(bytes, h.sections[kWeightSection]);
  const BlobReader blob(weights, keepalive, what);

  serde::Reader graph_r(section_span(bytes, h.sections[kGraphSection]),
                        what + " [graph section]");
  std::shared_ptr<Graph> graph = read_graph(graph_r, blob);

  serde::Reader plan_r(section_span(bytes, h.sections[kPlanSection]),
                       what + " [plan section]");
  CompiledPlan plan;
  plan.options = read_options(plan_r);
  plan.weight_region = static_cast<MemRegion>(plan_r.u8());
  plan.weight_bytes = plan_r.i64();
  plan.total_macs = plan_r.i64();
  plan.total_cycles = plan_r.u64();
  const size_t steps = plan_r.count<uint32_t>(min_step_bytes());
  plan.steps.reserve(steps);
  for (size_t i = 0; i < steps; ++i) {
    plan.steps.push_back(read_step(plan_r, blob, *graph));
  }
  plan.owned_graph = graph;
  plan.graph = graph.get();
  plan.latencies = latencies ? std::move(latencies)
                             : std::make_shared<TileLatencyCache>();
  serde::Reader lat_r(section_span(bytes, h.sections[kLatencySection]),
                      what + " [latency section]");
  plan.latencies->merge_records(lat_r);

  // artifact.fingerprint: the header's identity must re-derive from the
  // rehydrated content — a mismatch means the artifact lies about what it
  // contains (or the serializer round-trip broke), which would poison
  // every fingerprint-keyed cache downstream.
  ++admission.checks_run;
  const uint64_t graph_fp = graph_fingerprint(*graph);
  const uint64_t plan_fp = plan_fingerprint_from(graph_fp, plan.options);
  if (graph_fp != h.graph_fp || plan_fp != h.plan_fp) {
    admission.findings.push_back(
        {VerifySeverity::kError, "artifact.fingerprint", 0,
         what + ": rehydrated fingerprints do not match the header"});
    throw VerifyError(std::move(admission));
  }

  // the PR-7 static verifier is the final admission gate, exactly as for
  // freshly compiled plans entering the serving PlanStore
  VerifyReport verdict = verify_plan(plan);
  if (!verdict.ok()) throw VerifyError(std::move(verdict));
  return plan;
}

}  // namespace

CompiledPlan load_plan(std::shared_ptr<MappedFile> file,
                       std::shared_ptr<TileLatencyCache> latencies) {
  DECIMATE_CHECK(file != nullptr, "load_plan: null mapping");
  const auto bytes = file->bytes();
  const std::string what = file->path();
  return load_plan_impl(bytes, file, what, std::move(latencies));
}

CompiledPlan load_plan_from_bytes(std::span<const uint8_t> bytes,
                                  const std::string& what,
                                  std::shared_ptr<TileLatencyCache> latencies) {
  // re-home into 64-byte-aligned storage so payload views keep the
  // alignment the format guarantees through a page-aligned mmap
  auto aligned = std::make_shared<AlignedVec<uint8_t>>(bytes.begin(),
                                                       bytes.end());
  const std::span<const uint8_t> span(*aligned);
  return load_plan_impl(span, aligned, what, std::move(latencies));
}

}  // namespace decimate::artifact
