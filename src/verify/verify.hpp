#pragma once
// PlanVerifier: static analysis over CompiledPlans.
//
// verify_plan() re-derives what a CompiledPlan *claims* from first
// principles — layer geometry from the graph, tile-schedule coverage,
// the N:M packing rules, integer ranges of the requant pipeline, kernel
// program legality and the SoC address map — and reports every
// inconsistency as a typed finding, without executing anything. It is
// the compiler's post-pass safety net (CompileOptions::verify_plans)
// and the serving PlanStore's admission gate: a plan that lowers wrong
// is rejected before a single cycle is simulated or served.
//
// Check families (ids are stable; tests and CI key on them):
//   shape.*   graph/geometry legality re-derived from layer_geometry
//   tiles.*   tile-schedule coverage: every output element written
//             exactly once (batch-fused: once per image), no overlap
//   pack.*    N:M packed weights: field widths, offset ranges, layout
//             duplication rules, dense round-trip
//   quant.*   worst-case int32 accumulator and requant legality
//   prog.*    kernel program operand/target bounds
//   mem.*     L1 footprints, DMA windows, weight-region budgets
//   report.*  per-step cost bookkeeping re-derived from tile costs
//   plan.*    plan-level structure and totals
//   shard.*   (verify_shard) slice disjointness/completeness
//
// Severity: kError findings mark plans that would run wrong (or not at
// all); kWarn marks suspicious-but-executable properties (e.g. a
// requant multiply that can wrap the 32-bit product).

#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "exec/plan.hpp"

namespace decimate {

struct ShardPlan;

enum class VerifySeverity : uint8_t { kWarn, kError };

const char* verify_severity_name(VerifySeverity s);

struct VerifyFinding {
  VerifySeverity severity = VerifySeverity::kError;
  std::string check;  // stable check id, e.g. "tiles.overlap"
  int node_id = 0;    // offending graph node (0 = plan-level)
  std::string message;
};

struct VerifyReport {
  std::vector<VerifyFinding> findings;
  int checks_run = 0;  // individual checks evaluated (clean or not)

  int errors() const;
  int warnings() const;
  /// No errors (warnings allowed).
  bool ok() const { return errors() == 0; }
  /// No findings at all.
  bool clean() const { return findings.empty(); }
  /// Any finding with this check id?
  bool has(std::string_view check) const;
  std::string to_string() const;
};

/// Thrown by the Compiler post-pass (CompileOptions::verify_plans) and
/// the PlanStore admission gate when a plan has error-level findings.
class VerifyError : public Error {
 public:
  explicit VerifyError(VerifyReport report);
  const VerifyReport& report() const { return report_; }

 private:
  VerifyReport report_;
};

/// Statically analyze a plan; never executes kernels or touches the ISS.
VerifyReport verify_plan(const CompiledPlan& plan);

/// Check a ShardPlan against the plan it partitions: slices per step are
/// disjoint and complete (tile indices assigned exactly once), and the
/// cycle bookkeeping re-derives from the slices.
VerifyReport verify_shard(const CompiledPlan& plan, const ShardPlan& shard);

}  // namespace decimate
