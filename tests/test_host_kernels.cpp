// Host kernel layer tests: the sparse N:M gather kernels and the blocked
// dense kernels must be bit-identical to the scalar reference ops — full
// range and arbitrary ranged slices (which must stitch exactly) — across
// M in {4, 8, 16}, every NmPacked layout, stride/pad edge cases and
// ResNet18's served conv shapes; and
// the served models select no scalar instance on an AVX2 host. Plus the
// WorkerPool the engines run them on.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "exec/compile.hpp"
#include "exec/worker_pool.hpp"
#include "models/models.hpp"
#include "nn/host_kernel_instances.hpp"
#include "nn/host_kernels.hpp"
#include "nn/prune.hpp"
#include "nn/ref_ops.hpp"
#include "testutil.hpp"

namespace decimate {
namespace {

using test::random_bias;
using test::random_sparse_weights;
using test::random_weights;
using test::test_requant;

struct ConvCase {
  ConvGeom g;
  const char* tag;
};

// stride/pad edge cases: pad >= filter reach (all-border output), 1x1,
// non-square input and filter, strided, and a "normal" 3x3
const std::vector<ConvCase> kConvCases = {
    {{8, 8, 16, 8, 3, 3, 1, 1}, "3x3 pad1"},
    {{8, 8, 16, 8, 1, 1, 1, 0}, "1x1"},
    {{9, 7, 16, 6, 3, 2, 1, 1}, "non-square"},
    {{8, 8, 16, 8, 3, 3, 2, 1}, "stride2"},
    {{4, 4, 16, 4, 3, 3, 1, 3}, "pad >= reach"},
    {{6, 6, 32, 10, 5, 5, 1, 2}, "5x5"},
    {{5, 5, 16, 3, 5, 5, 1, 4}, "pad4 tiny"},
};

// ResNet18's served 3x3 conv shapes (32x32 input): the 32x32 stage, the
// stride-2 stage entry, and the 8x8 and 4x4 planes whose 16-pixel blocks
// span output rows (a 4x4 plane is exactly one block)
const std::vector<ConvCase> kServedConvCases = {
    {{32, 32, 64, 64, 3, 3, 1, 1}, "resnet18 32x32x64"},
    {{32, 32, 64, 128, 3, 3, 2, 1}, "resnet18 32->16 stride2"},
    {{8, 8, 256, 256, 3, 3, 1, 1}, "resnet18 8x8x256"},
    {{4, 4, 512, 512, 3, 3, 1, 1}, "resnet18 4x4x512"},
};

/// Contiguous part i of `parts` over [0, n) — the engine's intra-image
/// split (parts beyond n come out empty).
std::pair<int, int> chunk(int n, int parts, int i) {
  const int base = n / parts, rem = n % parts;
  const int lo = i * base + std::min(i, rem);
  return {lo, lo + base + (i < rem ? 1 : 0)};
}

Tensor8 conv_weights(const ConvGeom& g, int m, Rng& rng) {
  return m == 0 ? random_weights(g.k, g.fsz(), rng)
                : random_sparse_weights(g.k, g.fsz(), m, rng);
}

HostKernelDispatch conv_dispatch(const ConvGeom& g, const Tensor8& w, int m,
                                 NmLayout layout = NmLayout::kSw) {
  if (m == 0) return host_dispatch_for_conv(g, nullptr);
  const NmPacked packed = nm_pack(w.flat(), g.k, g.fsz(), m, layout);
  return host_dispatch_for_conv(g, &packed);
}

TEST(HostKernels, ConvBitExactAcrossGeometriesAndM) {
  Rng rng(101);
  for (const ConvCase& cc : kConvCases) {
    const ConvGeom& g = cc.g;
    const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
    const Tensor32 bias = random_bias(g.k, rng);
    const Requant rq = test_requant();
    for (const int m : {0, 4, 8, 16}) {
      if (m != 0 && g.fsz() % m != 0) continue;
      const Tensor8 w = conv_weights(g, m, rng);
      const HostKernelDispatch d = conv_dispatch(g, w, m);
      const Tensor8 ref = conv2d_s8(input, w, bias, g, rq);
      const Tensor8 host = host_conv2d_s8(d, input, w, bias, g, rq);
      EXPECT_TRUE(host == ref) << cc.tag << " m=" << m;
    }
  }
}

TEST(HostKernels, ConvRangedSlicesStitchBitExactly) {
  Rng rng(102);
  for (const ConvCase& cc : kConvCases) {
    const ConvGeom& g = cc.g;
    const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
    const Tensor32 bias = random_bias(g.k, rng);
    const Requant rq = test_requant();
    for (const int m : {0, 4}) {
      if (m != 0 && g.fsz() % m != 0) continue;
      const Tensor8 w = conv_weights(g, m, rng);
      const HostKernelDispatch d = conv_dispatch(g, w, m);
      const Tensor8 ref = conv2d_s8(input, w, bias, g, rq);

      // carve the output into uneven (oy, k) rectangles and stitch
      Tensor8 out({g.oy(), g.ox(), g.k});
      const int oy_mid = g.oy() / 3, k_mid = std::max(1, g.k / 2) ;
      for (const auto& [oy_r, k_r] :
           std::vector<std::pair<std::pair<int, int>, std::pair<int, int>>>{
               {{0, oy_mid}, {0, g.k}},
               {{oy_mid, g.oy()}, {0, k_mid}},
               {{oy_mid, g.oy()}, {k_mid, g.k}}}) {
        host_conv2d_s8_into(d, input, w, bias, g, rq, oy_r.first, oy_r.second,
                            k_r.first, k_r.second, out);
      }
      EXPECT_TRUE(out == ref) << cc.tag << " m=" << m;
    }
  }

  // the served sparse shapes at M=16, cut the way the engine's
  // intra-image path cuts them: 2..5 row parts, or 2..5 output-channel
  // parts, through every sparse conv instance this CPU runs
  for (const ConvCase& cc : kServedConvCases) {
    const ConvGeom& g = cc.g;
    const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
    const Tensor32 bias = random_bias(g.k, rng);
    const Requant rq = test_requant();
    const Tensor8 w = conv_weights(g, 16, rng);
    const Tensor8 ref = conv2d_s8(input, w, bias, g, rq);
    HostKernelDispatch d = conv_dispatch(g, w, 16);
    for (int id = 0; id < host_instance_count(); ++id) {
      const HostInstanceInfo& info = host_instance_info(id);
      if (info.family != d.impl || info.isa > host_isa_detected()) continue;
      host_force_instance(d, id);
      for (int parts = 2; parts <= 5; ++parts) {
        for (const bool by_rows : {true, false}) {
          Tensor8 out({g.oy(), g.ox(), g.k});
          for (int i = 0; i < parts; ++i) {
            const auto [lo, hi] = chunk(by_rows ? g.oy() : g.k, parts, i);
            if (by_rows) {
              host_conv2d_s8_into(d, input, w, bias, g, rq, lo, hi, 0, g.k,
                                  out);
            } else {
              host_conv2d_s8_into(d, input, w, bias, g, rq, 0, g.oy(), lo,
                                  hi, out);
            }
          }
          ASSERT_TRUE(out == ref)
              << cc.tag << " instance=" << info.name << " parts=" << parts
              << (by_rows ? " rows" : " channels");
        }
      }
    }
  }
}

TEST(HostKernels, ConvDecodesEveryNmLayout) {
  Rng rng(103);
  const ConvGeom g{8, 8, 16, 8, 3, 3, 1, 1};
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  const Tensor32 bias = random_bias(g.k, rng);
  const Requant rq = test_requant();
  for (const int m : {4, 8, 16}) {
    const Tensor8 w = conv_weights(g, m, rng);
    const Tensor8 ref = conv2d_s8(input, w, bias, g, rq);
    for (const NmLayout layout :
         {NmLayout::kSw, NmLayout::kConvIsaDup, NmLayout::kFcIsaInterleaved}) {
      const HostKernelDispatch d = conv_dispatch(g, w, m, layout);
      EXPECT_TRUE(host_conv2d_s8(d, input, w, bias, g, rq) == ref)
          << "m=" << m << " layout=" << nm_layout_name(layout);
    }
  }
}

TEST(HostKernels, FcBitExactDenseAndSparse) {
  Rng rng(104);
  for (const auto& [tokens, c, k] :
       std::vector<std::tuple<int, int, int>>{
           {1, 64, 10}, {7, 64, 9}, {13, 128, 32}, {4, 48, 6}}) {
    const Tensor8 input = Tensor8::random({tokens, c}, rng);
    const Tensor32 bias = random_bias(k, rng);
    const Requant rq = test_requant();
    for (const int m : {0, 4, 8, 16}) {
      if (m != 0 && c % m != 0) continue;
      const Tensor8 w = m == 0 ? random_weights(k, c, rng)
                               : random_sparse_weights(k, c, m, rng);
      const NmPacked packed =
          m == 0 ? NmPacked{} : nm_pack(w.flat(), k, c, m, NmLayout::kSw);
      const HostKernelDispatch d =
          host_dispatch_for_fc(k, c, m == 0 ? nullptr : &packed);
      const Tensor8 ref = fc_s8(input, w, bias, rq);
      EXPECT_TRUE(host_fc_s8(d, input, w, bias, rq) == ref)
          << "t=" << tokens << " c=" << c << " k=" << k << " m=" << m;

      // ranged slices (odd token split exercises the 4-token remainder)
      Tensor8 out({tokens, k});
      const int t_mid = tokens / 2, k_mid = k / 2;
      host_fc_s8_into(d, input, w, bias, rq, 0, t_mid, 0, k, out);
      host_fc_s8_into(d, input, w, bias, rq, t_mid, tokens, 0, k_mid, out);
      host_fc_s8_into(d, input, w, bias, rq, t_mid, tokens, k_mid, k, out);
      EXPECT_TRUE(out == ref) << "ranged t=" << tokens << " m=" << m;
    }
  }
}

TEST(HostKernels, FuzzRandomGeometries) {
  Rng rng(106);
  for (int iter = 0; iter < 60; ++iter) {
    ConvGeom g;
    g.c = 4 << rng.uniform_int(0, 3);  // 4..32
    g.k = rng.uniform_int(1, 12);
    g.fx = rng.uniform_int(1, 4);
    g.fy = rng.uniform_int(1, 4);
    g.stride = rng.uniform_int(1, 2);
    g.pad = rng.uniform_int(0, 4);
    g.ix = rng.uniform_int(std::max(1, g.fx - 2 * g.pad), 9);
    g.iy = rng.uniform_int(std::max(1, g.fy - 2 * g.pad), 9);
    if (g.ix + 2 * g.pad < g.fx || g.iy + 2 * g.pad < g.fy) continue;
    const int m_pick = rng.uniform_int(0, 3);
    const int m = m_pick == 0 ? 0 : (2 << m_pick);  // 0, 4, 8, 16
    if (m != 0 && g.fsz() % m != 0) continue;

    const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
    const Tensor8 w = conv_weights(g, m, rng);
    const Tensor32 bias = random_bias(g.k, rng);
    const Requant rq = test_requant();
    const HostKernelDispatch d = conv_dispatch(g, w, m);
    const Tensor8 ref = conv2d_s8(input, w, bias, g, rq);
    ASSERT_TRUE(host_conv2d_s8(d, input, w, bias, g, rq) == ref)
        << "iter " << iter << ": ix=" << g.ix << " iy=" << g.iy
        << " c=" << g.c << " k=" << g.k << " f=" << g.fx << "x" << g.fy
        << " s=" << g.stride << " p=" << g.pad << " m=" << m;
  }
}

TEST(HostKernels, DispatchDropsExplicitZeroValues) {
  // rows whose blocks are entirely zero must simply vanish from the
  // gather plan (a stored 0 value contributes nothing)
  Rng rng(107);
  const int k = 4, c = 32, m = 4;
  Tensor8 w({k, c}, 0);  // all-zero: trivially 1:4 sparse
  const NmPacked packed = nm_pack(w.flat(), k, c, m, NmLayout::kSw);
  const HostKernelDispatch d = host_dispatch_for_fc(k, c, &packed);
  EXPECT_EQ(d.nz_total(), 0);
  const Tensor8 input = Tensor8::random({3, c}, rng);
  const Tensor32 bias = random_bias(k, rng);
  const Tensor8 ref = fc_s8(input, w, bias, test_requant());
  EXPECT_TRUE(host_fc_s8(d, input, w, bias, test_requant()) == ref);
}

TEST(HostKernels, BackingStorageIs64ByteAligned) {
  // the SIMD instances use unaligned loads (loadu) so alignment is never
  // a correctness requirement, but 64B-aligned rows keep vector loads off
  // cache-line splits — pin the allocator so a regression is loud
  Rng rng(108);
  const Tensor8 t8 = Tensor8::random({5, 7, 16}, rng);
  const Tensor32 t32({33}, 1);
  EXPECT_TRUE(host_aligned(t8.data()));
  EXPECT_TRUE(host_aligned(t32.data()));

  const ConvGeom g{8, 8, 16, 8, 3, 3, 1, 1};
  const Tensor8 w = random_sparse_weights(g.k, g.fsz(), 4, rng);
  const NmPacked packed = nm_pack(w.flat(), g.k, g.fsz(), 4, NmLayout::kSw);
  const HostKernelDispatch d = host_dispatch_for_conv(g, &packed);
  EXPECT_TRUE(host_aligned(d.val.data()));
  EXPECT_TRUE(host_aligned(d.col.data()));
  const HostKernelDispatch df = host_dispatch_for_fc(10, 64, nullptr);
  (void)df;
  const Tensor8 wf = random_sparse_weights(10, 64, 4, rng);
  const NmPacked pf = nm_pack(wf.flat(), 10, 64, 4, NmLayout::kSw);
  const HostKernelDispatch ds = host_dispatch_for_fc(10, 64, &pf);
  EXPECT_TRUE(host_aligned(ds.val.data()));
  EXPECT_TRUE(host_aligned(ds.col.data()));
}

// Restores the ISA cap on scope exit so a failing assertion can't leak a
// scalar clamp into later tests.
struct IsaCapGuard {
  explicit IsaCapGuard(HostIsa cap) { set_host_isa_cap(cap); }
  ~IsaCapGuard() { set_host_isa_cap(HostIsa::kAvx512Vnni); }
};

// Every registry instance runnable on this CPU, forced onto every
// geometry of its family — including ones its selection predicate would
// route away from (c % 16 != 0, width-1 interiors, stride 2, M=2, a
// partial last pixel block) — must be bit-identical to the scalar
// reference. Predicates are performance heuristics, never correctness
// gates. ResNet18's served shapes run at the M it serves (16) and its
// dense stem at M=0.
TEST(HostKernels, EveryConvInstanceBitExactOnOddGeometries) {
  Rng rng(201);
  struct Case {
    ConvGeom g;
    const char* tag;
    std::vector<int> ms;
  };
  const std::vector<int> all_m = {0, 2, 4, 8, 16};
  std::vector<Case> cases = {
      {{8, 8, 16, 8, 3, 3, 1, 1}, "3x3 pad1", all_m},
      {{8, 8, 20, 6, 3, 3, 1, 1}, "c=20 not divisible by 16", all_m},
      {{3, 3, 16, 4, 3, 3, 1, 1}, "width-1 interior", all_m},
      {{8, 8, 16, 8, 3, 3, 2, 1}, "stride2", all_m},
      {{7, 9, 24, 5, 3, 5, 1, 2}, "non-square 3x5", all_m},
      {{6, 6, 4, 7, 1, 1, 1, 0}, "1x1 c=4 scalar-tail only", all_m},
      {{5, 7, 32, 6, 3, 3, 2, 1}, "4x3 out stride2: one partial block", all_m},
      {{32, 32, 4, 64, 3, 3, 1, 1}, "resnet18 stem", {0}},
  };
  for (const ConvCase& cc : kServedConvCases) {
    cases.push_back({cc.g, cc.tag, {16}});
  }
  for (const Case& cc : cases) {
    const ConvGeom& g = cc.g;
    const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
    const Tensor32 bias = random_bias(g.k, rng);
    const Requant rq = test_requant();
    for (const int m : cc.ms) {
      if (m != 0 && g.fsz() % m != 0) continue;
      const Tensor8 w = conv_weights(g, m, rng);
      const Tensor8 ref = conv2d_s8(input, w, bias, g, rq);
      const std::vector<NmLayout> layouts =
          m == 0 ? std::vector<NmLayout>{NmLayout::kSw}
                 : std::vector<NmLayout>{NmLayout::kSw, NmLayout::kConvIsaDup,
                                         NmLayout::kFcIsaInterleaved};
      for (const NmLayout layout : layouts) {
        if (m != 0 && layout == NmLayout::kFcIsaInterleaved && g.k % 2 != 0) {
          continue;  // interleaved layout needs an even channel count
        }
        HostKernelDispatch d = conv_dispatch(g, w, m, layout);
        for (int id = 0; id < host_instance_count(); ++id) {
          const HostInstanceInfo& info = host_instance_info(id);
          if (info.family != d.impl) continue;
          if (info.isa > host_isa_detected()) continue;
          host_force_instance(d, id);
          ASSERT_TRUE(host_conv2d_s8(d, input, w, bias, g, rq) == ref)
              << cc.tag << " m=" << m << " layout=" << nm_layout_name(layout)
              << " instance=" << info.name;
        }
      }
    }
  }
}

TEST(HostKernels, EveryFcInstanceBitExactOnOddGeometries) {
  Rng rng(202);
  // tokens below/at/above the 16-token transpose block, c not divisible
  // by 16, k odd (kills the 2x2/4-row unrolls' even assumption), M=2
  for (const auto& [tokens, c, k] : std::vector<std::tuple<int, int, int>>{
           {1, 64, 10}, {3, 20, 7}, {16, 48, 11}, {17, 16, 2}, {33, 40, 9}}) {
    const Tensor8 input = Tensor8::random({tokens, c}, rng);
    const Tensor32 bias = random_bias(k, rng);
    const Requant rq = test_requant();
    for (const int m : {0, 2, 4, 8, 16}) {
      if (m != 0 && c % m != 0) continue;
      const Tensor8 w = m == 0 ? random_weights(k, c, rng)
                               : random_sparse_weights(k, c, m, rng);
      const Tensor8 ref = fc_s8(input, w, bias, rq);
      const std::vector<NmLayout> layouts =
          m == 0 ? std::vector<NmLayout>{NmLayout::kSw}
                 : std::vector<NmLayout>{NmLayout::kSw, NmLayout::kConvIsaDup,
                                         NmLayout::kFcIsaInterleaved};
      for (const NmLayout layout : layouts) {
        if (m != 0 && layout == NmLayout::kFcIsaInterleaved && k % 2 != 0) {
          continue;
        }
        const NmPacked packed =
            m == 0 ? NmPacked{} : nm_pack(w.flat(), k, c, m, layout);
        HostKernelDispatch d =
            host_dispatch_for_fc(k, c, m == 0 ? nullptr : &packed, tokens);
        for (int id = 0; id < host_instance_count(); ++id) {
          const HostInstanceInfo& info = host_instance_info(id);
          if (info.family != d.impl) continue;
          if (info.isa > host_isa_detected()) continue;
          host_force_instance(d, id);
          ASSERT_TRUE(host_fc_s8(d, input, w, bias, rq) == ref)
              << "t=" << tokens << " c=" << c << " k=" << k << " m=" << m
              << " layout=" << nm_layout_name(layout)
              << " instance=" << info.name;

          // ranged slices must stitch bit-exactly per instance too (the
          // engine's intra-image split runs exactly these)
          Tensor8 out({tokens, k});
          const int t_mid = tokens / 2, k_mid = k / 2;
          host_fc_s8_into(d, input, w, bias, rq, 0, t_mid, 0, k, out);
          host_fc_s8_into(d, input, w, bias, rq, t_mid, tokens, 0, k_mid, out);
          host_fc_s8_into(d, input, w, bias, rq, t_mid, tokens, k_mid, k, out);
          ASSERT_TRUE(out == ref)
              << "ranged t=" << tokens << " m=" << m
              << " instance=" << info.name;
        }
      }
    }
  }
}

TEST(HostKernels, ScalarIsaCapForcesScalarSelectionBitExactly) {
  // clamp selection to the scalar tier: newly built dispatches must pick
  // the scalar instances and still match the reference — this is the
  // "plan compiled on a capable machine, forced to scalar" guarantee
  const IsaCapGuard guard(HostIsa::kScalar);
  EXPECT_EQ(host_isa(), HostIsa::kScalar);
  Rng rng(203);
  const ConvGeom g{8, 8, 32, 8, 3, 3, 1, 1};
  const Tensor8 input = Tensor8::random({g.iy, g.ix, g.c}, rng);
  const Tensor32 bias = random_bias(g.k, rng);
  const Requant rq = test_requant();
  for (const int m : {0, 4}) {
    const Tensor8 w = conv_weights(g, m, rng);
    const HostKernelDispatch d = conv_dispatch(g, w, m);
    EXPECT_NE(std::string(host_instance_name(d)).find("scalar"),
              std::string::npos)
        << host_instance_name(d);
    EXPECT_TRUE(host_conv2d_s8(d, input, w, bias, g, rq) ==
                conv2d_s8(input, w, bias, g, rq))
        << "m=" << m;
  }
}

// The served models never fall back to a scalar kernel on a host with
// AVX2: every conv and FC step of full ResNet18 (dense and 1:4/1:8/1:16)
// and of the ViT FFN block (dense and 1:8) selects a SIMD instance.
TEST(HostKernels, ServedModelsSelectNoScalarInstanceOnAvx2) {
  bool avx2_built = false;
  for (int id = 0; id < host_instance_count(); ++id) {
    avx2_built = avx2_built || host_instance_info(id).isa == HostIsa::kAvx2;
  }
  if (!avx2_built || host_isa_detected() < HostIsa::kAvx2) {
    GTEST_SKIP() << "no AVX2 instances in this build or on this host";
  }
  const auto cache = std::make_shared<TileLatencyCache>();
  std::vector<std::pair<std::string, Graph>> models;
  for (const int m : {0, 4, 8, 16}) {
    Resnet18Options opt;
    opt.sparsity_m = m;
    models.emplace_back("resnet18 m=" + std::to_string(m),
                        build_resnet18(opt));
  }
  for (const int m : {0, 8}) {
    models.emplace_back("ffn m=" + std::to_string(m),
                        build_ffn_block(196, 384, 1536, m, 11));
  }
  for (const auto& [name, graph] : models) {
    const CompiledPlan plan = Compiler(CompileOptions{}, cache).compile(graph);
    for (const PlanStep& step : plan.steps) {
      const OpType op = graph.node(step.node_id).op;
      if (op != OpType::kConv2d && op != OpType::kFc) continue;
      const std::string instance = host_instance_name(step.host);
      EXPECT_EQ(instance.find("scalar"), std::string::npos)
          << name << " " << graph.node(step.node_id).name << " selects "
          << instance;
    }
  }
}

TEST(HostKernels, InstanceRegistryIsWellFormed) {
  ASSERT_GT(host_instance_count(), 0);
  // every family must end in a scalar guaranteed-fallback instance
  bool scalar_seen[5] = {};  // indexed by HostImpl (kRefFallback unused)
  for (int id = 0; id < host_instance_count(); ++id) {
    const HostInstanceInfo& info = host_instance_info(id);
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.geometry, nullptr);
    if (info.isa == HostIsa::kScalar) {
      scalar_seen[static_cast<int>(info.family)] = true;
    }
  }
  for (const HostImpl fam :
       {HostImpl::kDenseConv, HostImpl::kSparseConv, HostImpl::kDenseFc,
        HostImpl::kSparseFc}) {
    EXPECT_TRUE(scalar_seen[static_cast<int>(fam)])
        << "family " << static_cast<int>(fam) << " has no scalar fallback";
  }
}

TEST(WorkerPool, RunsEveryTaskExactlyOnceAndIsReusable) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.threads(), 3);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(17);
    pool.run(17, [&](int i) { hits[static_cast<size_t>(i)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPool, ZeroThreadPoolRunsInline) {
  WorkerPool pool(0);
  std::vector<int> order;
  pool.run(4, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WorkerPool, NestedSubmissionRunsInlineWithoutDeadlock) {
  // a task that re-enters pool.run (engine intra-image split inside a
  // run_batch image task) must execute the nested job inline on the
  // calling worker — never re-acquire the job lock or oversubscribe
  WorkerPool pool(2);
  EXPECT_FALSE(WorkerPool::in_task());
  std::atomic<int> inner_hits{0};
  std::atomic<int> inline_depth_ok{0};
  pool.run(4, [&](int) {
    EXPECT_TRUE(WorkerPool::in_task());
    pool.run(3, [&](int) {
      if (WorkerPool::in_task()) inline_depth_ok++;
      inner_hits++;
    });
  });
  EXPECT_FALSE(WorkerPool::in_task());
  EXPECT_EQ(inner_hits.load(), 12);
  EXPECT_EQ(inline_depth_ok.load(), 12);

  // nested exceptions propagate straight to the submitting task
  EXPECT_THROW(
      pool.run(2,
               [&](int) {
                 pool.run(2, [](int i) {
                   if (i == 1) throw std::runtime_error("nested boom");
                 });
               }),
      std::runtime_error);
  // and the pool stays usable
  std::atomic<int> ok{0};
  pool.run(5, [&](int) { ok++; });
  EXPECT_EQ(ok.load(), 5);
}

TEST(WorkerPool, PropagatesTheFirstTaskException) {
  WorkerPool pool(2);
  std::atomic<int> done{0};
  EXPECT_THROW(
      pool.run(8,
               [&](int i) {
                 if (i == 3) throw std::runtime_error("task 3 failed");
                 done++;
               }),
      std::runtime_error);
  EXPECT_EQ(done.load(), 7);  // claimed tasks still drain
  // the pool stays usable after a failed job
  std::atomic<int> ok{0};
  pool.run(4, [&](int) { ok++; });
  EXPECT_EQ(ok.load(), 4);
}

}  // namespace
}  // namespace decimate
