#include "nn/host_kernels.hpp"

#include <algorithm>
#include <atomic>

#include "nn/host_kernel_instances.hpp"
#include "nn/host_kernels_impl.hpp"
#include "nn/ref_ops.hpp"

namespace decimate {

namespace {

void check_conv_args(const Tensor8& input, const Tensor8& weights,
                     const Tensor32& bias, const ConvGeom& g, int oy_s,
                     int oy_e, int k_s, int k_e, const Tensor8& out,
                     bool dense) {
  g.validate();
  DECIMATE_CHECK(input.shape() == (std::vector<int>{g.iy, g.ix, g.c}),
                 "host conv input shape mismatch");
  if (dense) {
    DECIMATE_CHECK(weights.shape() == (std::vector<int>{g.k, g.fsz()}),
                   "host conv weight shape mismatch");
  }
  DECIMATE_CHECK(bias.shape() == (std::vector<int>{g.k}),
                 "host conv bias shape mismatch");
  DECIMATE_CHECK(out.shape() == (std::vector<int>{g.oy(), g.ox(), g.k}),
                 "host conv output shape mismatch");
  DECIMATE_CHECK(0 <= oy_s && oy_s <= oy_e && oy_e <= g.oy() && 0 <= k_s &&
                     k_s <= k_e && k_e <= g.k,
                 "host conv range out of bounds");
}

void check_fc_args(const Tensor8& input, const Tensor8& weights,
                   const Tensor32& bias, int t_s, int t_e, int k_s, int k_e,
                   const Tensor8& out, bool dense) {
  DECIMATE_CHECK(input.rank() == 2, "host fc expects 2D input");
  const int t = input.dim(0), c = input.dim(1), k = out.dim(1);
  if (dense) {
    DECIMATE_CHECK(weights.rank() == 2 && weights.dim(1) == c,
                   "host fc weight/input dim mismatch");
    DECIMATE_CHECK(weights.dim(0) == k, "host fc weight row mismatch");
  }
  DECIMATE_CHECK(bias.shape() == (std::vector<int>{k}),
                 "host fc bias mismatch");
  DECIMATE_CHECK(out.rank() == 2 && out.dim(0) == t,
                 "host fc output shape mismatch");
  DECIMATE_CHECK(0 <= t_s && t_s <= t_e && t_e <= t && 0 <= k_s &&
                     k_s <= k_e && k_e <= k,
                 "host fc range out of bounds");
}

// ---------------------------------------------------------------------------
// Scalar registry entries. These adapters bind the registry's uniform
// signature to the private scalar kernel copies of THIS translation unit,
// which is compiled with the base ISA flags only — the guaranteed
// fallback contains no AVX code whatever the other TUs were built with.
// ---------------------------------------------------------------------------

void run_conv_dense_scalar(const HostKernelDispatch&, const Tensor8& input,
                           const Tensor8& weights, const Tensor32& bias,
                           const ConvGeom& g, const Requant& rq, int oy_s,
                           int oy_e, int k_s, int k_e, Tensor8& out) {
  hostk::dense_conv_into(input, weights, bias, g, rq, oy_s, oy_e, k_s, k_e,
                         out);
}

void run_conv_nm_scalar(const HostKernelDispatch& d, const Tensor8& input,
                        const Tensor8&, const Tensor32& bias,
                        const ConvGeom& g, const Requant& rq, int oy_s,
                        int oy_e, int k_s, int k_e, Tensor8& out) {
  hostk::sparse_conv_into(d, input, bias, g, rq, oy_s, oy_e, k_s, k_e, out);
}

void run_fc_dense_scalar(const HostKernelDispatch&, const Tensor8& input,
                         const Tensor8& weights, const Tensor32& bias,
                         const Requant& rq, int t_s, int t_e, int k_s,
                         int k_e, Tensor8& out) {
  hostk::dense_fc_into(input, weights, bias, rq, t_s, t_e, k_s, k_e, out);
}

void run_fc_nm_scalar(const HostKernelDispatch& d, const Tensor8& input,
                      const Tensor8&, const Tensor32& bias, const Requant& rq,
                      int t_s, int t_e, int k_s, int k_e, Tensor8& out) {
  hostk::sparse_fc_into(d, input, bias, rq, t_s, t_e, k_s, k_e, out);
}

// ---------------------------------------------------------------------------
// Geometry predicates. A predicate says "this instance is the fast choice
// here", never "this instance works here" — every instance handles every
// geometry of its family.
// ---------------------------------------------------------------------------

#if defined(DECIMATE_HAVE_AVX2_TU) || defined(DECIMATE_HAVE_AVX512_TU)
bool conv_dense_wide16(const ConvGeom& g, int) { return g.fx * g.c >= 16; }

bool fc_dense_deep16(int, int c, int, int) { return c >= 16; }

bool fc_nm_tokens8(int tokens, int, int, int) { return tokens >= 8; }
#endif

#if defined(DECIMATE_HAVE_AVX2_TU)
bool conv_dense_narrow16(const ConvGeom& g, int) { return g.fx * g.c < 16; }
#endif

#if defined(DECIMATE_HAVE_AVX512_TU)
bool conv_dense_wide64(const ConvGeom& g, int) { return g.fx * g.c >= 64; }

bool fc_dense_deep64(int, int c, int, int) { return c >= 64; }
#endif

bool fits_always_conv(const ConvGeom&, int) { return true; }
bool fits_always_fc(int, int, int, int) { return true; }

// ---------------------------------------------------------------------------
// The instance table. Selection scans in order and takes the first entry
// whose family matches, whose ISA the host (as capped) supports, and
// whose predicate accepts the geometry — so within a family, faster
// tiers come first and the scalar instance is the unconditional last
// resort.
// ---------------------------------------------------------------------------

constexpr HostIsa kIsaScalar = HostIsa::kScalar;

const hostk::Instance kInstances[] = {
    // dense conv: the avx2 4-channel madd block outranks the vnni dp64
    // variant — its advantage is robust across conv shapes (a 64-byte
    // chunk only fills from long filter rows, and whole-model dense conv
    // measured faster through it), while the vnni instance stays
    // registered for forcing/benching on the shapes where it wins
#if defined(DECIMATE_HAVE_AVX2_TU)
    {{"conv-dense-mac16-avx2", HostImpl::kDenseConv, HostIsa::kAvx2,
      "fx*c >= 16", 1},
     conv_dense_wide16, nullptr, hostk::conv_dense_avx2, nullptr},
#endif
#if defined(DECIMATE_HAVE_AVX512_TU)
    {{"conv-dense-dp64-vnni", HostImpl::kDenseConv, HostIsa::kAvx512Vnni,
      "fx*c >= 64", 1},
     conv_dense_wide64, nullptr, hostk::conv_dense_vnni, nullptr},
#endif
#if defined(DECIMATE_HAVE_AVX2_TU)
    {{"conv-dense-im2col16-avx2", HostImpl::kDenseConv, HostIsa::kAvx2,
      "fx*c < 16", 16},
     conv_dense_narrow16, nullptr, hostk::conv_dense_im2col_avx2, nullptr},
#endif
    {{"conv-dense-scalar", HostImpl::kDenseConv, kIsaScalar, "always", 4},
     fits_always_conv, nullptr, run_conv_dense_scalar, nullptr},

#if defined(DECIMATE_HAVE_AVX2_TU)
    {{"conv-nm-im2col16-avx2", HostImpl::kSparseConv, HostIsa::kAvx2,
      "always", 16},
     fits_always_conv, nullptr, hostk::conv_nm_avx2, nullptr},
#endif
    {{"conv-nm-scalar", HostImpl::kSparseConv, kIsaScalar, "always", 4},
     fits_always_conv, nullptr, run_conv_nm_scalar, nullptr},

#if defined(DECIMATE_HAVE_AVX512_TU)
    {{"fc-dense-dp64-vnni", HostImpl::kDenseFc, HostIsa::kAvx512Vnni,
      "c >= 64", 2},
     nullptr, fc_dense_deep64, nullptr, hostk::fc_dense_vnni},
#endif
#if defined(DECIMATE_HAVE_AVX2_TU)
    {{"fc-dense-mac16-avx2", HostImpl::kDenseFc, HostIsa::kAvx2, "c >= 16",
      2},
     nullptr, fc_dense_deep16, nullptr, hostk::fc_dense_avx2},
#endif
    {{"fc-dense-scalar", HostImpl::kDenseFc, kIsaScalar, "always", 4},
     nullptr, fits_always_fc, nullptr, run_fc_dense_scalar},

#if defined(DECIMATE_HAVE_AVX2_TU)
    {{"fc-nm-tok16-avx2", HostImpl::kSparseFc, HostIsa::kAvx2,
      "tokens >= 8", 16},
     nullptr, fc_nm_tokens8, nullptr, hostk::fc_nm_avx2},
#endif
    {{"fc-nm-scalar", HostImpl::kSparseFc, kIsaScalar, "always", 4},
     nullptr, fits_always_fc, nullptr, run_fc_nm_scalar},
};

constexpr int kNumInstances =
    static_cast<int>(sizeof(kInstances) / sizeof(kInstances[0]));

std::atomic<HostIsa> g_isa_cap{HostIsa::kAvx512Vnni};

/// Scalar instance of a family (always present; the -1 / mismatch
/// fallback at run time).
const hostk::Instance& scalar_instance(HostImpl family) {
  for (const hostk::Instance& ins : kInstances) {
    if (ins.info.family == family && ins.info.isa == HostIsa::kScalar) {
      return ins;
    }
  }
  DECIMATE_FAIL("no scalar instance for family " << host_impl_name(family));
}

/// The instance a dispatch resolved to: its stored selection when valid
/// for the family (and runnable on this CPU), else the scalar fallback.
const hostk::Instance& resolve(const HostKernelDispatch& d) {
  if (d.instance >= 0 && d.instance < kNumInstances) {
    const hostk::Instance& ins = kInstances[d.instance];
    if (ins.info.family == d.impl && ins.info.isa <= host_isa_detected()) {
      return ins;
    }
  }
  return scalar_instance(d.impl);
}

int select_conv_instance(HostImpl family, const ConvGeom& g, int m) {
  const HostIsa isa = host_isa();
  for (int i = 0; i < kNumInstances; ++i) {
    const hostk::Instance& ins = kInstances[i];
    if (ins.info.family != family || ins.info.isa > isa) continue;
    if (ins.fits_conv != nullptr && ins.fits_conv(g, m)) return i;
  }
  DECIMATE_FAIL("no conv instance fits family " << host_impl_name(family));
}

int select_fc_instance(HostImpl family, int tokens, int c, int k, int m) {
  const HostIsa isa = host_isa();
  for (int i = 0; i < kNumInstances; ++i) {
    const hostk::Instance& ins = kInstances[i];
    if (ins.info.family != family || ins.info.isa > isa) continue;
    if (ins.fits_fc != nullptr && ins.fits_fc(tokens, c, k, m)) return i;
  }
  DECIMATE_FAIL("no fc instance fits family " << host_impl_name(family));
}

/// Decode the packed non-zeros of every row into the shared gather plan:
/// row_start CSR, dense column (j * M + offset) and value. Stored zero
/// values are dropped — they contribute nothing.
void build_gather(const NmPacked& packed, HostKernelDispatch& d) {
  d.row_start.assign(static_cast<size_t>(packed.rows) + 1, 0);
  d.col.reserve(static_cast<size_t>(packed.rows) * packed.nz_per_row);
  d.val.reserve(d.col.capacity());
  for (int r = 0; r < packed.rows; ++r) {
    for (int j = 0; j < packed.nz_per_row; ++j) {
      const int8_t v =
          packed.values[static_cast<size_t>(r) * packed.values_row_bytes +
                        static_cast<size_t>(j)];
      if (v == 0) continue;
      d.col.push_back(
          static_cast<uint16_t>(j * packed.m + packed.offset_at(r, j)));
      d.val.push_back(v);
    }
    d.row_start[static_cast<size_t>(r) + 1] =
        static_cast<int32_t>(d.val.size());
  }
}

}  // namespace

int host_select_instance_for_conv(HostImpl family, const ConvGeom& g, int m) {
  return select_conv_instance(family, g, m);
}

int host_select_instance_for_fc(HostImpl family, int tokens, int c, int k,
                                int m) {
  return select_fc_instance(family, tokens, c, k, m);
}

const char* host_impl_name(HostImpl impl) {
  switch (impl) {
    case HostImpl::kRefFallback: return "ref";
    case HostImpl::kDenseConv: return "dense-conv-blocked";
    case HostImpl::kDenseFc: return "dense-fc-blocked";
    case HostImpl::kSparseConv: return "sparse-conv-nm";
    case HostImpl::kSparseFc: return "sparse-fc-nm";
  }
  return "?";
}

const char* host_isa_name(HostIsa isa) {
  switch (isa) {
    case HostIsa::kScalar: return "scalar";
    case HostIsa::kAvx2: return "avx2";
    case HostIsa::kAvx512Vnni: return "avx512vnni";
  }
  return "?";
}

HostIsa host_isa_detected() {
  static const HostIsa detected = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni")) {
      return HostIsa::kAvx512Vnni;
    }
    if (__builtin_cpu_supports("avx2")) return HostIsa::kAvx2;
#endif
    return HostIsa::kScalar;
  }();
  return detected;
}

HostIsa host_isa() {
  return std::min(host_isa_detected(), g_isa_cap.load(std::memory_order_relaxed));
}

void set_host_isa_cap(HostIsa cap) {
  g_isa_cap.store(cap, std::memory_order_relaxed);
}

int host_instance_count() { return kNumInstances; }

const HostInstanceInfo& host_instance_info(int id) {
  DECIMATE_CHECK(id >= 0 && id < kNumInstances,
                 "host instance id out of range: " << id);
  return kInstances[id].info;
}

const char* host_instance_name(const HostKernelDispatch& d) {
  if (d.impl == HostImpl::kRefFallback) return "ref";
  return resolve(d).info.name;
}

int host_instance_lanes(const HostKernelDispatch& d) {
  if (d.impl == HostImpl::kRefFallback) return 1;
  return resolve(d).info.lanes;
}

void host_force_instance(HostKernelDispatch& d, int id) {
  DECIMATE_CHECK(id >= 0 && id < kNumInstances,
                 "host instance id out of range: " << id);
  const hostk::Instance& ins = kInstances[id];
  DECIMATE_CHECK(ins.info.family == d.impl,
                 "instance " << ins.info.name << " does not implement "
                             << host_impl_name(d.impl));
  DECIMATE_CHECK(ins.info.isa <= host_isa_detected(),
                 "instance " << ins.info.name
                             << " needs an ISA this CPU lacks");
  d.instance = id;
}

HostKernelDispatch host_dispatch_for_conv(const ConvGeom& g,
                                          const NmPacked* packed) {
  HostKernelDispatch d;
  if (packed == nullptr) {
    d.impl = HostImpl::kDenseConv;
    d.instance = select_conv_instance(d.impl, g, 0);
    return d;
  }
  DECIMATE_CHECK(packed->rows == g.k && packed->cols == g.fsz(),
                 "packed weights do not match conv geometry");
  DECIMATE_CHECK(g.fsz() <= 65535, "conv filter size overflows gather index");
  d.impl = HostImpl::kSparseConv;
  d.m = packed->m;
  d.instance = select_conv_instance(d.impl, g, packed->m);
  build_gather(*packed, d);
  return d;
}

HostKernelDispatch host_dispatch_for_fc(int rows, int c,
                                        const NmPacked* packed, int tokens) {
  HostKernelDispatch d;
  if (packed == nullptr) {
    d.impl = HostImpl::kDenseFc;
    d.instance = select_fc_instance(d.impl, tokens, c, rows, 0);
    return d;
  }
  DECIMATE_CHECK(packed->rows == rows && packed->cols == c,
                 "packed weights do not match fc geometry");
  DECIMATE_CHECK(c <= 65535, "fc input width overflows gather index");
  d.impl = HostImpl::kSparseFc;
  d.m = packed->m;
  d.instance = select_fc_instance(d.impl, tokens, c, rows, packed->m);
  build_gather(*packed, d);
  return d;
}

void host_conv2d_s8_into(const HostKernelDispatch& d, const Tensor8& input,
                         const Tensor8& weights, const Tensor32& bias,
                         const ConvGeom& g, const Requant& rq, int oy_s,
                         int oy_e, int k_s, int k_e, Tensor8& out) {
  switch (d.impl) {
    case HostImpl::kSparseConv:
      check_conv_args(input, weights, bias, g, oy_s, oy_e, k_s, k_e, out,
                      /*dense=*/false);
      break;
    case HostImpl::kDenseConv:
      check_conv_args(input, weights, bias, g, oy_s, oy_e, k_s, k_e, out,
                      /*dense=*/true);
      break;
    case HostImpl::kRefFallback:
      conv2d_s8_into(input, weights, bias, g, rq, oy_s, oy_e, k_s, k_e, out);
      return;
    default: DECIMATE_FAIL("dispatch is not a conv kernel");
  }
  resolve(d).conv_run(d, input, weights, bias, g, rq, oy_s, oy_e, k_s, k_e,
                      out);
}

Tensor8 host_conv2d_s8(const HostKernelDispatch& d, const Tensor8& input,
                       const Tensor8& weights, const Tensor32& bias,
                       const ConvGeom& g, const Requant& rq) {
  Tensor8 out({g.oy(), g.ox(), g.k});
  host_conv2d_s8_into(d, input, weights, bias, g, rq, 0, g.oy(), 0, g.k, out);
  return out;
}

void host_fc_s8_into(const HostKernelDispatch& d, const Tensor8& input,
                     const Tensor8& weights, const Tensor32& bias,
                     const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                     Tensor8& out) {
  switch (d.impl) {
    case HostImpl::kSparseFc:
      check_fc_args(input, weights, bias, t_s, t_e, k_s, k_e, out,
                    /*dense=*/false);
      break;
    case HostImpl::kDenseFc:
      check_fc_args(input, weights, bias, t_s, t_e, k_s, k_e, out,
                    /*dense=*/true);
      break;
    case HostImpl::kRefFallback:
      fc_s8_into(input, weights, bias, rq, t_s, t_e, k_s, k_e, out);
      return;
    default: DECIMATE_FAIL("dispatch is not an fc kernel");
  }
  resolve(d).fc_run(d, input, weights, bias, rq, t_s, t_e, k_s, k_e, out);
}

Tensor8 host_fc_s8(const HostKernelDispatch& d, const Tensor8& input,
                   const Tensor8& weights, const Tensor32& bias,
                   const Requant& rq) {
  DECIMATE_CHECK(input.rank() == 2, "host fc expects 2D input");
  const int k = d.impl == HostImpl::kSparseFc
                    ? static_cast<int>(d.row_start.size()) - 1
                    : weights.dim(0);
  Tensor8 out({input.dim(0), k});
  host_fc_s8_into(d, input, weights, bias, rq, 0, input.dim(0), 0, k, out);
  return out;
}

}  // namespace decimate
