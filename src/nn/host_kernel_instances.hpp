#pragma once
// The host kernel *instance library*: per-geometry-class implementations
// of the four host kernel families (dense conv, dense FC/matmul, N:M
// sparse conv, N:M sparse FC), compiled per ISA and selected at compile
// time (host_dispatch_for_*) by a geometry predicate — the
// composable-kernel instance-dispatch idiom applied to this repo's host
// backend.
//
// The sparse families run the paper's kernel shape (Sec. 4.1) at every
// geometry: a block of `lanes` output pixels (conv: im2col'd into a
// [fsz][lanes] buffer, zero where a tap reaches into the padding) or
// tokens (FC: transposed into [C][lanes]) is walked once per output
// channel over that channel's non-zeros, one broadcast multiply per
// non-zero. Conv and FC share the gather plan and the row loop, so a
// sparse conv has no stride, interior or border special case.
//
// Three ISA tiers:
//  - kScalar:     the blocked scalar loops, 4 lanes (always present —
//                 the guaranteed fallback, and the oracle the SIMD
//                 instances are fuzzed against).
//  - kAvx2:       16-lane int8 microkernels built from sign-extend +
//                 pmaddwd / mullo (exact: s16 x s16 products fit int32,
//                 accumulation wraps mod 2^32 like the scalar reference,
//                 so outputs are bit-identical in any order).
//  - kAvx512Vnni: vpdpbusd u8 x s8 dot products with the +128 bias
//                 correction (acc = sum((x+128) w) - 128 sum(w), exact mod
//                 2^32).
//
// The SIMD translation units are compiled with their ISA flags only when
// the toolchain supports them (CMake gates DECIMATE_HAVE_*_TU) and their
// instances are only *selectable* when CPUID reports the ISA at runtime —
// a plan compiled on a capable machine and forced to scalar (or a build
// with no SIMD TUs at all) produces bit-identical outputs.

#include "nn/host_kernels.hpp"

namespace decimate {

enum class HostIsa : uint8_t { kScalar = 0, kAvx2 = 1, kAvx512Vnni = 2 };

const char* host_isa_name(HostIsa isa);

/// The ISA tier this process's CPU supports (CPUID, computed once).
HostIsa host_isa_detected();

/// The tier instance selection uses: min(detected, cap).
HostIsa host_isa();

/// Clamp instance selection to at most `cap` for subsequently built
/// dispatches — the scalar-fallback test hook (kAvx512Vnni = no clamp).
/// Already-built dispatches keep their instance.
void set_host_isa_cap(HostIsa cap);

/// Registry metadata for one kernel instance (bench tables, README, and
/// the per-instance fuzz sweep enumerate these).
struct HostInstanceInfo {
  const char* name;      // e.g. "fc-dense-mac16-avx2"
  HostImpl family;       // which kernel family it implements
  HostIsa isa;           // minimum ISA tier required to run it
  const char* geometry;  // human-readable selection predicate
  int lanes;             // output pixels / tokens computed side by side
};

int host_instance_count();
const HostInstanceInfo& host_instance_info(int id);

/// The instance a dispatch selected (name of d.instance; "ref" when the
/// dispatch is a default-constructed reference fallback).
const char* host_instance_name(const HostKernelDispatch& d);

/// Lane count of the instance a dispatch selected (1 for "ref"): a range
/// split that leaves a part fewer output pixels or tokens than this runs
/// that part's kernel on partly empty blocks.
int host_instance_lanes(const HostKernelDispatch& d);

/// Test/bench hook: override the compile-time selection with a specific
/// registry instance. Checks the instance implements d's family and that
/// the running CPU supports its ISA. Every instance must be bit-exact on
/// every geometry of its family (predicates are performance heuristics,
/// not correctness gates), which is exactly what this hook lets tests
/// assert.
void host_force_instance(HostKernelDispatch& d, int id);

}  // namespace decimate
