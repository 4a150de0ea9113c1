#pragma once
// Host kernel layer: sparsity-aware and blocked-dense CPU kernels that
// execute a plan at the speed its kernel choice implies, instead of the
// naive dense scalar loops in ref_ops.cpp.
//
// Two families, both bit-exact with the reference ops:
//
//  - N:M sparse conv/FC: iterate only the packed non-zeros decoded from
//    the plan's NmPacked (values + ceil(log2 M)-bit offsets), doing
//    cols/M MACs per output instead of cols — the paper's software-kernel
//    idea (Sec. 4.1/4.2) applied to the host execution path. Skipped
//    terms are exact zeros and int32 accumulation wraps modulo 2^32, so
//    the accumulator is bit-identical to the dense reference sum.
//  - Blocked dense conv/FC: interior/border split so the padded-conv
//    inner loop is branch-free, K-register blocking (4 output channels
//    share each input load), and contiguous pointer walks instead of
//    per-element Tensor::at. Per-output-channel accumulation order is
//    exactly the reference order, so outputs match bit for bit.
//
// A HostKernelDispatch is built in-process per PlanStep, from the step's
// node and packed weights, when the plan is compiled and again when a
// `.plan` artifact is loaded (it is never serialized): sparse steps decode
// the packed weights into the gather plan both sparse families share,
// dense steps carry just the implementation tag. A default-constructed
// dispatch falls back to the reference ops, which stay the bit-exactness
// oracle.

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/shared_buf.hpp"
#include "nn/layer_geometry.hpp"
#include "nn/nm_format.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace decimate {

enum class HostImpl : uint8_t {
  kRefFallback = 0,  // no dispatch built: scalar reference ops
  kDenseConv,        // blocked dense conv (interior/border split, K x 4)
  kDenseFc,          // K-blocked dense FC (also matmul: dynamic weights)
  kSparseConv,       // N:M gather conv (row CSR over im2col pixel blocks)
  kSparseFc,         // N:M gather FC (row CSR over token blocks)
};

const char* host_impl_name(HostImpl impl);

/// Product of lowering one gemm node to a host kernel, built in-process at
/// compile and at load. The sparse gather plan is self-contained (decoded
/// values + indices), so it survives plan copies and never dangles into
/// the NmPacked it was built from.
struct HostKernelDispatch {
  HostImpl impl = HostImpl::kRefFallback;
  int m = 0;  // N:M block size for the sparse impls (0 = dense)
  // Registry index of the kernel instance selected for this node's
  // geometry (see nn/host_kernel_instances.hpp). The table is a static
  // singleton, so the index survives plan copies; -1 resolves to the
  // family's scalar instance at run time.
  int instance = -1;

  // Sparse conv/FC gather plan: per output channel, its non-zeros in
  // ascending column order — the dense reference order with the zeros
  // removed. row_start is a CSR of size rows+1 into col/val; a column is
  // the non-zero's position in the dense weight row (conv: tap * C +
  // channel < fsz, FC: input feature < C), so one row loop serves both
  // families. The streamed arrays are 64-byte aligned so vector loads
  // never straddle a cache line at the base. Arrays are SharedBufs, so
  // plan copies share one decoded gather plan; each process decodes its
  // own from the packed payload, which is all a `.plan` artifact stores.
  SharedBuf<int32_t> row_start;
  SharedBuf<uint16_t> col;
  SharedBuf<int8_t> val;  // non-zero values, parallel to col
  // Per output channel, the sum of its non-zero values: the VNNI
  // instances feed vpdpbusd activations biased by +128 and start each
  // row's accumulator at bias - 128 * row_sum to cancel it exactly.
  SharedBuf<int32_t> row_sum;

  bool sparse() const {
    return impl == HostImpl::kSparseConv || impl == HostImpl::kSparseFc;
  }
  /// MACs one output element costs (nz per row for sparse, cols dense).
  int64_t nz_total() const { return static_cast<int64_t>(val.size()); }
};

/// Build the dispatch for a conv node: sparse gather plan when `packed`
/// is non-null (any NmLayout; logical offsets are decoded; fsz must fit
/// the uint16 column index), blocked dense otherwise. The kernel instance
/// is selected here, keyed on the node's geometry and the host ISA — see
/// nn/host_kernel_instances.hpp.
HostKernelDispatch host_dispatch_for_conv(const ConvGeom& g,
                                          const NmPacked* packed);

/// Build the dispatch for an FC/matmul node over `c` input features and
/// `rows` output channels; matmul passes packed == nullptr (weights are
/// dynamic activations). A sparse `c` must fit the uint16 column index.
/// `tokens` is the token count the plan will run the node with — it keys
/// instance selection (the token-parallel sparse SIMD instance needs >= 16
/// tokens to pay for its transpose) but never correctness: every instance
/// accepts any token range at run time.
HostKernelDispatch host_dispatch_for_fc(int rows, int c,
                                        const NmPacked* packed,
                                        int tokens = 1);

/// Ranged convolution through the dispatch: bit-identical to
/// conv2d_s8_into over the same ranges (disjoint ranges stitch exactly).
/// Dense impls read `weights`; sparse impls read the dispatch's gather
/// plan and ignore `weights`.
void host_conv2d_s8_into(const HostKernelDispatch& d, const Tensor8& input,
                         const Tensor8& weights, const Tensor32& bias,
                         const ConvGeom& g, const Requant& rq, int oy_s,
                         int oy_e, int k_s, int k_e, Tensor8& out);

/// Full-range wrapper.
Tensor8 host_conv2d_s8(const HostKernelDispatch& d, const Tensor8& input,
                       const Tensor8& weights, const Tensor32& bias,
                       const ConvGeom& g, const Requant& rq);

/// Ranged FC through the dispatch (see conv2d counterpart).
void host_fc_s8_into(const HostKernelDispatch& d, const Tensor8& input,
                     const Tensor8& weights, const Tensor32& bias,
                     const Requant& rq, int t_s, int t_e, int k_s, int k_e,
                     Tensor8& out);

/// Full-range wrapper.
Tensor8 host_fc_s8(const HostKernelDispatch& d, const Tensor8& input,
                   const Tensor8& weights, const Tensor32& bias,
                   const Requant& rq);

}  // namespace decimate
