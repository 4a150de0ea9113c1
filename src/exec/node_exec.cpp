#include "exec/node_exec.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "nn/host_kernel_instances.hpp"
#include "nn/ref_ops.hpp"
#include "trace/metrics.hpp"

namespace decimate {

namespace {

// One invocation counter per host kernel family; resolved once so the
// per-node cost is a single relaxed increment.
void count_kernel_invocation(HostImpl impl, bool use_host) {
  static metrics::Counter* const counters[] = {
      &metrics::registry().counter("exec.kernel.ref"),
      &metrics::registry().counter("exec.kernel.dense-conv-blocked"),
      &metrics::registry().counter("exec.kernel.dense-fc-blocked"),
      &metrics::registry().counter("exec.kernel.sparse-conv-nm"),
      &metrics::registry().counter("exec.kernel.sparse-fc-nm"),
  };
  const size_t i = use_host ? static_cast<size_t>(impl) : 0;
  counters[i < std::size(counters) ? i : 0]->inc();
}

}  // namespace

Tensor8 transpose2d(const Tensor8& x) {
  DECIMATE_CHECK(x.rank() == 2, "transpose expects 2D");
  const int r = x.dim(0), c = x.dim(1);
  Tensor8 out({c, r});
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) out.at({j, i}) = x.at({i, j});
  }
  return out;
}

HostKernelDispatch host_dispatch_for(const Node& node, const PlanStep& step) {
  const NmPacked* packed = step.has_packed ? &step.packed : nullptr;
  if (node.op == OpType::kConv2d) {
    return host_dispatch_for_conv(node.conv, packed);
  }
  // matmul weights are dynamic activations: it never carries a payload,
  // so it always dispatches dense
  return host_dispatch_for_fc(node.fc.k, node.fc.c, packed, node.fc.tokens);
}

void exec_gemm_node_host(const PlanStep& step, const Node& node,
                         const Tensor8& in, const Tensor8* b_operand,
                         bool use_host, Tensor8& out) {
  count_kernel_invocation(step.host.impl, use_host);
  if (node.op == OpType::kConv2d) {
    const ConvGeom& g = node.conv;
    out = Tensor8({g.oy(), g.ox(), g.k});
    if (use_host) {
      host_conv2d_s8_into(step.host, in, node.weights, node.bias, g, node.rq,
                          0, g.oy(), 0, g.k, out);
    } else {
      conv2d_s8_into(in, node.weights, node.bias, g, node.rq, 0, g.oy(), 0,
                     g.k, out);
    }
    return;
  }

  // FC / matmul: matmul's "weights" are the (possibly transposed) second
  // operand with a zero bias
  const FcGeom& g = node.fc;
  Tensor8 bmat;
  const Tensor8* weights = &node.weights;
  Tensor32 zero_bias;
  const Tensor32* bias = &node.bias;
  if (node.op == OpType::kMatmul) {
    DECIMATE_CHECK(b_operand != nullptr, "matmul needs a second operand");
    bmat = node.transpose_b ? transpose2d(*b_operand) : *b_operand;
    weights = &bmat;
    zero_bias = Tensor32({g.k}, 0);
    bias = &zero_bias;
  }
  out = Tensor8({in.dim(0), weights->dim(0)});
  if (use_host) {
    host_fc_s8_into(step.host, in, *weights, *bias, node.rq, 0, in.dim(0), 0,
                    weights->dim(0), out);
  } else {
    fc_s8_into(in, *weights, *bias, node.rq, 0, in.dim(0), 0,
               weights->dim(0), out);
  }
}

void exec_gemm_node_host_parallel(const PlanStep& step, const Node& node,
                                  const Tensor8& in, const Tensor8* b_operand,
                                  WorkerPool& pool, int parts, Tensor8& out) {
  count_kernel_invocation(step.host.impl, /*use_host=*/true);
  // contiguous [lo, hi) chunk i of `parts` over [0, n)
  const auto chunk = [](int n, int nparts, int i) {
    const int base = n / nparts, rem = n % nparts;
    const int lo = i * base + std::min(i, rem);
    return std::pair<int, int>{lo, lo + base + (i < rem ? 1 : 0)};
  };

  if (node.op == OpType::kConv2d) {
    // split output rows — or output channels when the smallest row part
    // would hold fewer pixels than the kernel computes side by side
    // (a 4x4 plane over 4 parts fills 4 of 16 lanes), so every part runs
    // full pixel blocks
    const ConvGeom& g = node.conv;
    out = Tensor8({g.oy(), g.ox(), g.k});
    const int rows_n = std::min(std::max(1, parts), g.oy());
    if ((g.oy() / rows_n) * g.ox() >= host_instance_lanes(step.host)) {
      pool.run(rows_n, [&](int i) {
        const auto [lo, hi] = chunk(g.oy(), rows_n, i);
        host_conv2d_s8_into(step.host, in, node.weights, node.bias, g,
                            node.rq, lo, hi, 0, g.k, out);
      });
    } else {
      const int n = std::min(std::max(1, parts), g.k);
      pool.run(n, [&](int i) {
        const auto [lo, hi] = chunk(g.k, n, i);
        host_conv2d_s8_into(step.host, in, node.weights, node.bias, g,
                            node.rq, 0, g.oy(), lo, hi, out);
      });
    }
    return;
  }

  // FC / matmul: operand selection once, then split tokens — or output
  // channels when the token count can't feed every worker (the k split
  // keeps single-token FC heads parallel)
  const FcGeom& g = node.fc;
  Tensor8 bmat;
  const Tensor8* weights = &node.weights;
  Tensor32 zero_bias;
  const Tensor32* bias = &node.bias;
  if (node.op == OpType::kMatmul) {
    DECIMATE_CHECK(b_operand != nullptr, "matmul needs a second operand");
    bmat = node.transpose_b ? transpose2d(*b_operand) : *b_operand;
    weights = &bmat;
    zero_bias = Tensor32({g.k}, 0);
    bias = &zero_bias;
  }
  const int tokens = in.dim(0), k = weights->dim(0);
  out = Tensor8({tokens, k});
  if (tokens >= std::max(1, parts)) {
    const int n = std::min(std::max(1, parts), tokens);
    pool.run(n, [&](int i) {
      const auto [lo, hi] = chunk(tokens, n, i);
      host_fc_s8_into(step.host, in, *weights, *bias, node.rq, lo, hi, 0, k,
                      out);
    });
  } else {
    const int n = std::min(std::max(1, parts), k);
    pool.run(n, [&](int i) {
      const auto [lo, hi] = chunk(k, n, i);
      host_fc_s8_into(step.host, in, *weights, *bias, node.rq, 0, tokens, lo,
                      hi, out);
    });
  }
}

void exec_vec_node_ref(const Node& node,
                       const std::vector<const Tensor8*>& in, Tensor8& out) {
  const auto& x = *in[0];
  switch (node.op) {
    case OpType::kRelu: out = relu_s8(x); break;
    case OpType::kAdd: out = add_s8(x, node.rq, *in[1], node.rq2); break;
    case OpType::kMaxPool2: out = maxpool2x2_s8(x); break;
    case OpType::kAvgPool: out = global_avgpool_s8(x, node.rq); break;
    case OpType::kLut: out = lut_s8(x, node.lut); break;
    case OpType::kSoftmax: out = softmax_s8(x, node.exp_lut); break;
    case OpType::kLayerNorm:
      out = layernorm_s8(x, node.gamma, node.beta);
      break;
    case OpType::kReshape: {
      out = Tensor8(node.out_shape);
      DECIMATE_CHECK(out.numel() == x.numel(), "reshape numel mismatch");
      std::copy(x.flat().begin(), x.flat().end(), out.flat().begin());
      break;
    }
    case OpType::kSlice: {
      DECIMATE_CHECK(x.rank() == 2, "slice expects {T, C}");
      const int t = x.dim(0);
      const int w = node.slice_end - node.slice_begin;
      DECIMATE_CHECK(w > 0 && node.slice_end <= x.dim(1), "bad slice range");
      out = Tensor8({t, w});
      for (int i = 0; i < t; ++i) {
        std::memcpy(out.data() + static_cast<int64_t>(i) * w,
                    x.data() + static_cast<int64_t>(i) * x.dim(1) +
                        node.slice_begin,
                    static_cast<size_t>(w));
      }
      break;
    }
    case OpType::kConcat: {
      const int t = in[0]->dim(0);
      int total_c = 0;
      for (const Tensor8* p : in) {
        DECIMATE_CHECK(p->rank() == 2 && p->dim(0) == t, "concat mismatch");
        total_c += p->dim(1);
      }
      out = Tensor8({t, total_c});
      int col = 0;
      for (const Tensor8* p : in) {
        const int w = p->dim(1);
        for (int i = 0; i < t; ++i) {
          std::memcpy(out.data() + static_cast<int64_t>(i) * total_c + col,
                      p->data() + static_cast<int64_t>(i) * w,
                      static_cast<size_t>(w));
        }
        col += w;
      }
      break;
    }
    default: DECIMATE_FAIL("bad vec op");
  }
}

}  // namespace decimate
