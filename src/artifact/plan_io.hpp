#pragma once
// Versioned binary serialization of CompiledPlans — the registry's wire
// format (`.plan` files).
//
// Layout: a fixed header (magic, format version, plan/graph fingerprints,
// section table, header CRC) followed by three sections:
//
//   graph    the full Graph: topology, geometries, requant constants and
//            every parameter tensor — enough to rehydrate a Graph whose
//            graph_fingerprint() equals the original's bit for bit. Gemm
//            biases are stored by reference into the weight section.
//   plan     CompileOptions (the nine plan-shaping fields) and every
//            PlanStep: kernel choice, tile plans, tile costs, shard
//            metadata, layer reports, and weight-section references for
//            the NmPacked payloads.
//   weights  the payload blob: NmPacked values/offsets and gemm biases,
//            each 64-byte aligned. This is the section N server processes
//            share physically: load_plan builds SharedBuf views of the
//            packed payload that alias the file mapping instead of
//            copying. Host kernel bindings (the gather CSR) are not
//            stored: the loader derives them from the packed payload,
//            which the verifier ties to the fingerprinted graph.
//
// The bytes are a function of the plan alone — its graph and compile
// options — so one plan identity always serializes to the same file,
// whatever else the process compiled. Every structured field is
// explicit-width little-endian (common/serde); the weight blob is raw
// little-endian element bytes (views reinterpret them in place, so the
// format requires a little-endian host — asserted at compile time).
//
// Admission: verify_artifact() runs the structural artifact.* checks
// (magic/version, section bounds, per-section CRCs) without rehydrating;
// load_plan() runs them, refuses a header that names another plan
// identity than the caller expects, rehydrates, re-derives both
// fingerprints from the rehydrated content (artifact.fingerprint), and
// runs the static plan verifier (verify_plan) — a corrupt or forged
// artifact is rejected before anything executes from it, and leaves no
// state behind. Every enum field is range-checked as it is read.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "artifact/mapped_file.hpp"
#include "exec/plan.hpp"
#include "verify/verify.hpp"

namespace decimate::artifact {

// v4: graph, plan and weight sections; the weight section holds the
// packed payloads and biases only (v3 also stored each sparse step's host
// gather arrays, v2 the compile-time latency-cache records). Artifacts of
// any other version are refused.
constexpr uint32_t kFormatVersion = 4;

/// Fixed header size: magic + version + plan/graph fingerprints +
/// 3-entry section table + header CRC (the last 4 bytes of the header).
/// Exposed so tests can tamper with specific header fields.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4 + 3 * (1 + 8 + 8 + 4) + 4;

/// Parsed header of a `.plan` byte buffer.
struct ArtifactInfo {
  uint32_t version = 0;
  uint64_t plan_fingerprint = 0;
  uint64_t graph_fingerprint = 0;
  uint64_t weight_section_bytes = 0;  // the mmap-shared payload blob
  uint64_t total_bytes = 0;
};

/// Serialize a plan to the `.plan` format. The result is self-contained:
/// load_plan() over these bytes rebuilds a plan that runs bit-identically
/// with no compiler and no ISS in the loading process.
std::vector<uint8_t> serialize_plan(const CompiledPlan& plan);

/// Parse the fixed header. Throws decimate::Error on a malformed one
/// (too short, bad magic); does not validate section contents.
ArtifactInfo peek_info(std::span<const uint8_t> bytes,
                       const std::string& what);

/// Structural admission checks, reported under stable artifact.* ids:
///   artifact.magic    magic/size/version legality
///   artifact.bounds   section table within the file, no overlap
///   artifact.crc      header and per-section CRC32 (the weight-section
///                     CRC catches bit flips in the shared payload)
/// Never rehydrates; safe on untrusted bytes.
VerifyReport verify_artifact(std::span<const uint8_t> bytes,
                             const std::string& what);

/// Rehydrate a plan from a mapped artifact. SharedBuf payloads (NmPacked
/// values/offsets) alias the mapping — `file` is kept alive by the
/// returned plan; the plan owns its rehydrated graph
/// (CompiledPlan::owned_graph).
/// Admission gate: runs verify_artifact, then (when `expect_fingerprint`
/// is set) refuses a header naming another plan identity, then the
/// artifact.fingerprint re-derivation and verify_plan; throws
/// VerifyError on any error-level finding, and decimate::Error on bytes
/// that do not parse (an out-of-range enum, a count past the section).
/// Only then are the host kernel bindings built (host_dispatch_for).
CompiledPlan load_plan(std::shared_ptr<MappedFile> file,
                       std::optional<uint64_t> expect_fingerprint = {});

/// load_plan from a heap buffer (tests, non-mmap callers): same checks;
/// the bytes are copied into 64-byte-aligned storage owned by the
/// returned plan's payload views.
CompiledPlan load_plan_from_bytes(std::span<const uint8_t> bytes,
                                  const std::string& what,
                                  std::optional<uint64_t> expect_fingerprint =
                                      {});

}  // namespace decimate::artifact
