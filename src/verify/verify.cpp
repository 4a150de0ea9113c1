#include "verify/verify.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/bitutil.hpp"
#include "exec/compile.hpp"
#include "exec/tile_runner.hpp"
#include "nn/prune.hpp"
#include "shard/shard_planner.hpp"
#include "sim/memory_map.hpp"
#include "trace/metrics.hpp"

namespace decimate {

const char* verify_severity_name(VerifySeverity s) {
  return s == VerifySeverity::kError ? "error" : "warn";
}

int VerifyReport::errors() const {
  int n = 0;
  for (const VerifyFinding& f : findings) {
    n += (f.severity == VerifySeverity::kError) ? 1 : 0;
  }
  return n;
}

int VerifyReport::warnings() const {
  return static_cast<int>(findings.size()) - errors();
}

bool VerifyReport::has(std::string_view check) const {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const VerifyFinding& f) { return f.check == check; });
}

std::string VerifyReport::to_string() const {
  std::ostringstream oss;
  oss << "plan verification: " << checks_run << " checks, " << errors()
      << " error(s), " << warnings() << " warning(s)";
  for (const VerifyFinding& f : findings) {
    oss << "\n  [" << verify_severity_name(f.severity) << "] " << f.check
        << " (node " << f.node_id << "): " << f.message;
  }
  return oss.str();
}

namespace {

std::string verify_error_what(const VerifyReport& report) {
  std::ostringstream oss;
  oss << "plan verification failed: " << report.errors() << " error(s)";
  int shown = 0;
  for (const VerifyFinding& f : report.findings) {
    if (shown == 8) {
      oss << "\n  ... " << report.findings.size() - 8 << " more";
      break;
    }
    oss << "\n  [" << verify_severity_name(f.severity) << "] " << f.check
        << " (node " << f.node_id << "): " << f.message;
    ++shown;
  }
  return oss.str();
}

}  // namespace

VerifyError::VerifyError(VerifyReport report)
    : Error(verify_error_what(report)), report_(std::move(report)) {}

namespace {

constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();

/// One verification pass over a plan. Checks never execute kernels: they
/// re-derive expectations from the graph and compare against what the
/// plan recorded.
class PlanVerifier {
 public:
  explicit PlanVerifier(const CompiledPlan& plan) : plan_(plan) {}

  VerifyReport run() {
    if (!require(plan_.graph != nullptr, "graph.missing", 0,
                 "plan carries no graph pointer")) {
      return std::move(report_);
    }
    check_plan_structure();
    for (const PlanStep& step : plan_.steps) {
      // steps with an out-of-range node_id were already flagged by
      // plan.steps; per-step checks can't dereference their node
      if (step.node_id < 1 || step.node_id >= plan_.graph->size()) continue;
      check_step(step);
    }
    check_plan_totals();
    return std::move(report_);
  }

 private:
  void add(VerifySeverity sev, const char* check, int node,
           const std::string& msg) {
    report_.findings.push_back({sev, check, node, msg});
  }

  /// Evaluate one check; false records an error-level finding.
  bool require(bool ok, const char* check, int node, const std::string& msg) {
    ++report_.checks_run;
    if (!ok) add(VerifySeverity::kError, check, node, msg);
    return ok;
  }

  bool warn_unless(bool ok, const char* check, int node,
                   const std::string& msg) {
    ++report_.checks_run;
    if (!ok) add(VerifySeverity::kWarn, check, node, msg);
    return ok;
  }

  static std::string str(int64_t v) { return std::to_string(v); }

  // -- plan-level structure ------------------------------------------------

  void check_plan_structure() {
    const Graph& g = *plan_.graph;
    if (!require(static_cast<int>(plan_.steps.size()) == g.size() - 1,
                 "plan.steps", 0,
                 "plan has " + str(static_cast<int64_t>(plan_.steps.size())) +
                     " steps for " + str(g.size() - 1) + " graph nodes")) {
      return;
    }
    for (size_t i = 0; i < plan_.steps.size(); ++i) {
      const PlanStep& step = plan_.steps[i];
      require(step.node_id == static_cast<int>(i) + 1 &&
                  step.op == g.node(step.node_id).op,
              "plan.steps", step.node_id,
              "step " + str(static_cast<int64_t>(i)) +
                  " does not mirror its graph node");
    }
  }

  void check_plan_totals() {
    uint64_t cycles = 0;
    int64_t macs = 0;
    int64_t weights = 0;
    for (const PlanStep& step : plan_.steps) {
      cycles += step.report.total_cycles;
      macs += step.report.macs;
      if ((step.op == OpType::kConv2d || step.op == OpType::kFc) &&
          step.node_id >= 1 && step.node_id < plan_.graph->size()) {
        weights += deployed_weight_bytes(plan_.graph->node(step.node_id),
                                         step.choice);
      }
    }
    require(plan_.total_cycles == cycles && plan_.total_macs == macs,
            "plan.totals", 0,
            "plan totals (cycles " + str(static_cast<int64_t>(
                plan_.total_cycles)) + ", macs " + str(plan_.total_macs) +
                ") != sum of step reports (" +
                str(static_cast<int64_t>(cycles)) + ", " + str(macs) + ")");
    require(plan_.weight_bytes == weights, "mem.weight_bytes", 0,
            "plan.weight_bytes " + str(plan_.weight_bytes) +
                " != re-derived deployed bytes " + str(weights));
    require(Compiler::weight_region(plan_.weight_bytes) == plan_.weight_region,
            "mem.weight_region", 0,
            "weight region does not match the deployed-bytes budget rule (" +
                str(plan_.weight_bytes) + " bytes)");
  }

  // -- per-step dispatch ---------------------------------------------------

  void check_step(const PlanStep& step) {
    const Node& node = plan_.graph->node(step.node_id);
    switch (step.op) {
      case OpType::kConv2d: check_conv(step, node); break;
      case OpType::kFc:
      case OpType::kMatmul: check_fc(step, node); break;
      case OpType::kReshape:
        check_reshape(step, node);
        break;
      case OpType::kSlice: check_slice(step, node); break;
      case OpType::kConcat: check_concat(step, node); break;
      default: check_vec(step, node); break;
    }
    check_report_cycles(step, node);
  }

  // -- family 1: graph / shape legality ------------------------------------

  void check_conv(const PlanStep& step, const Node& node) {
    const ConvGeom& g = node.conv;
    bool geom_ok = true;
    try {
      g.validate();
    } catch (const Error& e) {
      geom_ok = false;
      add(VerifySeverity::kError, "shape.geom", step.node_id, e.what());
    }
    ++report_.checks_run;
    if (!geom_ok) return;

    require(node.out_shape == std::vector<int>{g.oy(), g.ox(), g.k},
            "shape.out", step.node_id,
            "out_shape does not match conv geometry {" + str(g.oy()) + ", " +
                str(g.ox()) + ", " + str(g.k) + "}");
    require(node.weights.shape() == std::vector<int>{g.k, g.fsz()},
            "shape.weights", step.node_id,
            "weights shape != {K, FY*FX*C} = {" + str(g.k) + ", " +
                str(g.fsz()) + "}");
    require(g.c % 4 == 0 && g.ox() % 2 == 0, "kernel.legal", step.node_id,
            "conv kernels need C % 4 == 0 and an even OX (C=" + str(g.c) +
                ", OX=" + str(g.ox()) + ")");
    check_kernel_choice(step, node, g.k, g.fsz());
    require(step.report.macs == g.macs(), "report.macs", step.node_id,
            "reported MACs " + str(step.report.macs) + " != geometry MACs " +
                str(g.macs()));

    const int batch = step.batch_fused ? std::max(1, plan_.options.batch) : 1;
    check_gemm_tiles(step, g.oy(), g.k, g.ox(), batch);
    // conv tile input windows must stay inside the padded input extent;
    // 64-bit, because tile rows are artifact bytes and an out-of-bounds
    // pair (already a tiles.bounds finding) must not overflow
    for (const ShardTile& t : step.tiles_meta) {
      const int64_t len = int64_t{t.a_e} - t.a_s;
      if (len <= 0) continue;
      if (!require((len - 1) * g.stride + g.fy <=
                       int64_t{g.iy} + 2 * int64_t{g.pad},
                   "mem.window", step.node_id,
                   "tile rows [" + str(t.a_s) + ", " + str(t.a_e) +
                       ") need an input window taller than the padded "
                       "input")) {
        break;
      }
    }
    require(step.conv_tiles.l1_bytes > 0 &&
                step.conv_tiles.l1_bytes <= MemoryMap::kL1Size,
            "mem.l1", step.node_id,
            "conv tile L1 footprint " + str(step.conv_tiles.l1_bytes) +
                " outside (0, " + str(MemoryMap::kL1Size) + "]");
    check_pack(step, node, g.k, g.fsz());
    check_gemm_quant(step, node, g.fsz());
    check_program(step);
  }

  void check_fc(const PlanStep& step, const Node& node) {
    const FcGeom& g = node.fc;
    bool geom_ok = true;
    try {
      g.validate();
    } catch (const Error& e) {
      geom_ok = false;
      add(VerifySeverity::kError, "shape.geom", step.node_id, e.what());
    }
    ++report_.checks_run;
    if (!geom_ok) return;

    require(node.out_shape == std::vector<int>{g.tokens, g.k}, "shape.out",
            step.node_id,
            "out_shape does not match fc geometry {" + str(g.tokens) + ", " +
                str(g.k) + "}");
    if (node.op == OpType::kFc) {
      require(node.weights.shape() == std::vector<int>{g.k, g.c},
              "shape.weights", step.node_id,
              "weights shape != {K, C} = {" + str(g.k) + ", " + str(g.c) +
                  "}");
    }
    check_kernel_choice(step, node, g.k, g.c);
    require(step.report.macs == g.macs(), "report.macs", step.node_id,
            "reported MACs " + str(step.report.macs) + " != geometry MACs " +
                str(g.macs()));

    // batch-fused FC folds the batch into the token axis
    const int batch = step.batch_fused ? std::max(1, plan_.options.batch) : 1;
    check_gemm_tiles(step, g.tokens * batch, g.k, /*ox_mult=*/1,
                     /*cover=*/1);
    require(step.fc_tiles.l1_bytes > 0 &&
                step.fc_tiles.l1_bytes <= MemoryMap::kL1Size,
            "mem.l1", step.node_id,
            "fc tile L1 footprint " + str(step.fc_tiles.l1_bytes) +
                " outside (0, " + str(MemoryMap::kL1Size) + "]");
    check_pack(step, node, g.k, g.c);
    check_gemm_quant(step, node, g.c);
    check_program(step);
  }

  void check_kernel_choice(const PlanStep& step, const Node& node, int rows,
                           int cols) {
    const KernelChoice& c = step.choice;
    if (!c.sparse()) {
      require(!step.has_packed, "pack.missing", step.node_id,
              "dense kernel choice but the step carries packed weights");
      return;
    }
    require(c.m == 2 || c.m == 4 || c.m == 8 || c.m == 16, "kernel.legal",
            step.node_id, "sparse M must be 2/4/8/16, got " + str(c.m));
    const bool isa = c.kind == KernelKind::kConvSparseIsa ||
                     c.kind == KernelKind::kFcSparseIsa;
    require(!isa || c.m >= 4, "kernel.legal", step.node_id,
            "xDecimate kernels implement M in {4, 8, 16}, got M=" + str(c.m));
    require(node.op != OpType::kMatmul, "kernel.legal", step.node_id,
            "matmul operands are runtime activations; sparse choice is "
            "illegal");
    if (node.op == OpType::kMatmul) return;
    require(cols % c.m == 0 &&
                is_nm_sparse(node.weights.flat(), rows, cols, 1, c.m),
            "kernel.pattern", step.node_id,
            "weights are not 1:" + str(c.m) + " sparse but a 1:" + str(c.m) +
                " kernel was selected");
    require(step.has_packed, "pack.missing", step.node_id,
            "sparse kernel choice but no packed weights on the step");
  }

  // -- family 2: tile-schedule coverage ------------------------------------

  /// Coverage of the step's (A x K) output grid: every element written
  /// exactly `cover` times (batch-fused conv: once per image), tile
  /// ranges inside bounds, recorded out_bytes consistent.
  void check_gemm_tiles(const PlanStep& step, int A, int K, int ox_mult,
                        int cover) {
    if (!require(step.tiles_meta.size() == step.tile_costs.size(),
                 "tiles.count", step.node_id,
                 str(static_cast<int64_t>(step.tiles_meta.size())) +
                     " tile metadata entries for " +
                     str(static_cast<int64_t>(step.tile_costs.size())) +
                     " tile costs")) {
      return;
    }
    bool bounds_ok = true, bytes_ok = true;
    bool any_in = false, any_w = false;
    std::vector<int> counts(static_cast<size_t>(A) * static_cast<size_t>(K),
                            0);
    for (const ShardTile& t : step.tiles_meta) {
      if (!(0 <= t.a_s && t.a_s <= t.a_e && t.a_e <= A && 0 <= t.k_s &&
            t.k_s <= t.k_e && t.k_e <= K)) {
        if (bounds_ok) {
          add(VerifySeverity::kError, "tiles.bounds", step.node_id,
              "tile [" + str(t.a_s) + "," + str(t.a_e) + ")x[" + str(t.k_s) +
                  "," + str(t.k_e) + ") outside output " + str(A) + "x" +
                  str(K));
        }
        bounds_ok = false;
        continue;
      }
      const int64_t expect_bytes = static_cast<int64_t>(t.a_e - t.a_s) *
                                   ox_mult * (t.k_e - t.k_s);
      if (t.out_bytes != expect_bytes && bytes_ok) {
        add(VerifySeverity::kError, "tiles.out_bytes", step.node_id,
            "tile records " + str(t.out_bytes) + " output bytes, slice is " +
                str(expect_bytes));
        bytes_ok = false;
      }
      any_in = any_in || t.loads_input;
      any_w = any_w || t.loads_weights;
      for (int a = t.a_s; a < t.a_e; ++a) {
        for (int k = t.k_s; k < t.k_e; ++k) {
          ++counts[static_cast<size_t>(a) * static_cast<size_t>(K) +
                   static_cast<size_t>(k)];
        }
      }
    }
    report_.checks_run += 2;  // bounds + out_bytes sweeps
    bool overlap_ok = true, gap_ok = true;
    for (int a = 0; a < A && (overlap_ok || gap_ok); ++a) {
      for (int k = 0; k < K; ++k) {
        const int n = counts[static_cast<size_t>(a) * static_cast<size_t>(K) +
                             static_cast<size_t>(k)];
        if (n > cover && overlap_ok) {
          add(VerifySeverity::kError, "tiles.overlap", step.node_id,
              "output (" + str(a) + ", " + str(k) + ") written " + str(n) +
                  " times, expected " + str(cover));
          overlap_ok = false;
        } else if (n < cover && gap_ok) {
          add(VerifySeverity::kError, "tiles.gap", step.node_id,
              "output (" + str(a) + ", " + str(k) + ") written " + str(n) +
                  " times, expected " + str(cover));
          gap_ok = false;
        }
        if (!overlap_ok && !gap_ok) break;
      }
    }
    report_.checks_run += 2;  // overlap + gap sweeps
    require(step.tiles_meta.empty() || (any_in && any_w), "tiles.loads",
            step.node_id,
            "tile schedule never stages " +
                std::string(any_in ? "weights" : "input") + " in L1");
  }

  /// Row-chunked vector steps: contiguous ascending coverage from row 0.
  void check_row_tiles(const PlanStep& step) {
    if (step.shard_axis != ShardAxis::kRows) return;
    if (!require(step.tiles_meta.size() == step.tile_costs.size(),
                 "tiles.count", step.node_id,
                 "row-chunk metadata not parallel to tile costs")) {
      return;
    }
    int expect = 0;
    bool ok = true;
    for (const ShardTile& t : step.tiles_meta) {
      if (t.a_s != expect || t.a_e <= t.a_s) {
        add(VerifySeverity::kError,
            t.a_s < expect ? "tiles.overlap" : "tiles.gap", step.node_id,
            "row chunk [" + str(t.a_s) + ", " + str(t.a_e) +
                ") breaks contiguous coverage at row " + str(expect));
        ok = false;
        break;
      }
      expect = t.a_e;
    }
    ++report_.checks_run;
    (void)ok;
  }

  // -- family 3: N:M pack validation ---------------------------------------

  void check_pack(const PlanStep& step, const Node& node, int rows,
                  int cols) {
    // a dense choice carrying packed weights was already flagged by
    // pack.missing; layout_for is only defined for sparse kernel kinds
    if (!step.has_packed || !step.choice.sparse()) return;
    const NmPacked& p = step.packed;
    const NmLayout want = TileRunner::layout_for(step.choice.kind);
    require(p.layout == want, "pack.layout", step.node_id,
            std::string("packed layout ") + nm_layout_name(p.layout) +
                " does not match kernel kind (wants " +
                nm_layout_name(want) + ")");
    const bool meta_ok = require(
        p.m == step.choice.m && p.rows == rows && p.cols == cols &&
            p.m > 0 && p.cols % p.m == 0 && p.nz_per_row == p.cols / p.m &&
            p.nz_padded ==
                static_cast<int>(round_up(p.nz_per_row, p.m <= 4 ? 8 : 4)) &&
            p.values_row_bytes == p.nz_padded &&
            (p.layout != NmLayout::kFcIsaInterleaved || p.rows % 2 == 0),
        "pack.meta", step.node_id,
        "packed metadata inconsistent with M=" + str(step.choice.m) + ", " +
            str(rows) + "x" + str(cols));
    if (!meta_ok) return;
    const int units =
        (p.layout == NmLayout::kFcIsaInterleaved) ? p.rows / 2 : p.rows;
    const int fields_per_unit =
        (p.layout == NmLayout::kSw) ? p.nz_padded : 2 * p.nz_padded;
    if (!require(
            p.offsets_row_bytes ==
                    static_cast<int>(round_up(
                        ceil_div(static_cast<int64_t>(fields_per_unit) *
                                     p.offset_bits(),
                                 static_cast<int64_t>(8)),
                        4)) &&
                p.values_bytes() ==
                    static_cast<int64_t>(p.rows) * p.values_row_bytes &&
                p.offsets_bytes() ==
                    static_cast<int64_t>(units) * p.offsets_row_bytes,
            "pack.meta", step.node_id,
            "packed row strides / stream sizes inconsistent with the field "
            "width for M=" + str(p.m))) {
      return;
    }

    // Field-level scan: every stored offset < M, conv-ISA duplicates
    // agree, padding entries are {value 0, offset 0}.
    bool range_ok = true, dup_ok = true, pad_ok = true;
    const int bits = p.offset_bits();
    auto field = [&](int unit, int j) -> int {
      const int bitpos = j * bits;
      const uint8_t byte =
          p.offsets[static_cast<size_t>(unit) * p.offsets_row_bytes +
                    static_cast<size_t>(bitpos / 8)];
      return (byte >> (bitpos % 8)) & ((1 << bits) - 1);
    };
    for (int u = 0; u < units; ++u) {
      for (int j = 0; j < p.nz_padded; ++j) {
        const int raw0 =
            (p.layout == NmLayout::kSw) ? field(u, j) : field(u, 2 * j);
        if (p.layout == NmLayout::kConvIsaDup && dup_ok &&
            raw0 != field(u, 2 * j + 1)) {
          add(VerifySeverity::kError, "pack.dup", step.node_id,
              "conv-ISA duplicated offset fields disagree at row " + str(u) +
                  ", block " + str(j));
          dup_ok = false;
        }
        const int raw1 = (p.layout == NmLayout::kSw)
                             ? raw0
                             : field(u, 2 * j + 1);
        for (const int raw : {raw0, raw1}) {
          if (j < p.nz_per_row) {
            if (raw >= p.m && range_ok) {
              add(VerifySeverity::kError, "pack.offset_range", step.node_id,
                  "offset " + str(raw) + " >= M=" + str(p.m) + " at row " +
                      str(u) + ", block " + str(j));
              range_ok = false;
            }
          } else if (raw != 0 && pad_ok) {
            add(VerifySeverity::kError, "pack.padding", step.node_id,
                "padding offset field non-zero at row " + str(u) +
                    ", block " + str(j));
            pad_ok = false;
          }
        }
      }
    }
    for (int r = 0; r < p.rows && pad_ok; ++r) {
      for (int j = p.nz_per_row; j < p.nz_padded; ++j) {
        if (p.values[static_cast<size_t>(r) * p.values_row_bytes + j] != 0) {
          add(VerifySeverity::kError, "pack.padding", step.node_id,
              "padding value non-zero at row " + str(r) + ", slot " +
                  str(j) + " (the kernels accumulate it)");
          pad_ok = false;
          break;
        }
      }
    }
    report_.checks_run += 3;  // range + dup + padding sweeps

    // Decode round-trip against the graph's dense master copy. Skipped
    // when offsets are out of range (decode would index out of bounds).
    if (range_ok) {
      bool equal = false;
      try {
        equal = p.to_dense() == node.weights;
      } catch (const Error&) {
        equal = false;
      }
      require(equal, "pack.roundtrip", step.node_id,
              "packed weights do not decode back to the graph's dense "
              "weights");
    }
  }

  // -- family 4: quantization range analysis -------------------------------

  void check_requant(const Requant& rq, const char* what, int node_id) {
    require(rq.shift >= 0 && rq.shift < 31, "quant.shift", node_id,
            std::string(what) + " shift " + str(rq.shift) +
                " outside [0, 31)");
    require(rq.mult >= 1, "quant.mult", node_id,
            std::string(what) + " multiplier " + str(rq.mult) +
                " is not positive");
  }

  /// Worst-case |int32 accumulator| from the actual weights (|a| <= 127
  /// per activation) plus bias, then the requant multiply on top.
  void check_gemm_quant(const PlanStep& step, const Node& node, int cols) {
    check_requant(node.rq, "requant", step.node_id);
    int64_t worst = 0;
    if (node.op == OpType::kMatmul || node.weights.numel() == 0) {
      worst = 127ll * 127ll * cols;  // both operands are activations
    } else {
      const int rows = node.weights.dim(0);
      for (int r = 0; r < rows; ++r) {
        int64_t row_sum = 0;
        for (int c = 0; c < cols; ++c) {
          row_sum += std::abs(
              static_cast<int>(node.weights[static_cast<int64_t>(r) * cols +
                                            c]));
        }
        int64_t acc = row_sum * 127;
        if (node.bias.numel() == rows) {
          acc += std::abs(static_cast<int64_t>(node.bias[r]));
        }
        worst = std::max(worst, acc);
      }
    }
    require(worst <= kInt32Max, "quant.overflow", step.node_id,
            "worst-case |accumulator| " + str(worst) +
                " exceeds int32 range");
    if (worst <= kInt32Max && node.rq.mult >= 1) {
      warn_unless(worst * node.rq.mult <= kInt32Max, "quant.wrap",
                  step.node_id,
                  "|acc * mult| can reach " + str(worst * node.rq.mult) +
                      ": the 32-bit requant multiply wraps");
    }
  }

  // -- family 5: program / memory legality ---------------------------------

  void check_program(const PlanStep& step) {
    if (!require(step.program != nullptr, "prog.missing", step.node_id,
                 "gemm step has no kernel program")) {
      return;
    }
    const Program& prog = *step.program;
    const int size = prog.size();
    bool reg_ok = true, target_ok = true, halt = false;
    for (int i = 0; i < size; ++i) {
      const Instr& ins = prog.code[static_cast<size_t>(i)];
      if ((ins.rd >= 32 || ins.rs1 >= 32 || ins.rs2 >= 32) && reg_ok) {
        add(VerifySeverity::kError, "prog.reg", step.node_id,
            std::string("register index >= 32 in ") +
                opcode_name(ins.op) + " at instruction " + str(i));
        reg_ok = false;
      }
      halt = halt || ins.op == Opcode::kHalt;
      const Format fmt = opcode_format(ins.op);
      bool in_range = true;
      switch (fmt) {
        case Format::kFmtB:
        case Format::kFmtJ:
          in_range = ins.imm >= 0 && ins.imm < size;
          break;
        case Format::kFmtLp:
        case Format::kFmtLpI:
          // end marker is the index one past the loop body's last instr
          in_range = ins.imm > i && ins.imm <= size && ins.aux < 2;
          break;
        default: break;
      }
      if (!in_range && target_ok) {
        add(VerifySeverity::kError, "prog.target", step.node_id,
            std::string(opcode_name(ins.op)) + " at instruction " + str(i) +
                " targets " + str(ins.imm) + " outside the program (size " +
                str(size) + ")");
        target_ok = false;
      }
    }
    report_.checks_run += 2;
    require(halt, "prog.halt", step.node_id,
            "kernel program contains no halt");
  }

  // -- vector / marshalling steps ------------------------------------------

  void check_reshape(const PlanStep& step, const Node& node) {
    const Node& in = plan_.graph->node(node.inputs.at(0));
    int64_t in_n = 1, out_n = 1;
    for (int d : in.out_shape) in_n *= d;
    for (int d : node.out_shape) out_n *= d;
    require(in_n == out_n, "shape.reshape", step.node_id,
            "reshape changes element count " + str(in_n) + " -> " +
                str(out_n));
  }

  void check_slice(const PlanStep& step, const Node& node) {
    const Node& in = plan_.graph->node(node.inputs.at(0));
    const bool shape_ok = in.out_shape.size() == 2;
    require(shape_ok && node.slice_begin >= 0 &&
                node.slice_begin < node.slice_end &&
                node.slice_end <= in.out_shape[1],
            "mem.dma", step.node_id,
            "slice columns [" + str(node.slice_begin) + ", " +
                str(node.slice_end) + ") outside the producer tensor");
  }

  void check_concat(const PlanStep& step, const Node& node) {
    int width = 0;
    bool ok = node.out_shape.size() == 2;
    for (int input_id : node.inputs) {
      const Node& in = plan_.graph->node(input_id);
      ok = ok && in.out_shape.size() == 2 &&
           in.out_shape[0] == node.out_shape[0];
      if (in.out_shape.size() == 2) width += in.out_shape[1];
    }
    require(ok && width == node.out_shape[1], "shape.out", step.node_id,
            "concat inputs do not tile the output width");
  }

  void check_vec(const PlanStep& step, const Node& node) {
    check_row_tiles(step);
    if (node.op == OpType::kAdd) {
      check_requant(node.rq, "add input-0 requant", step.node_id);
      check_requant(node.rq2, "add input-1 requant", step.node_id);
    } else if (node.op == OpType::kAvgPool) {
      check_requant(node.rq, "avgpool requant", step.node_id);
      const Node& in = plan_.graph->node(node.inputs.at(0));
      if (in.out_shape.size() == 3) {
        const int64_t worst =
            127ll * in.out_shape[0] * in.out_shape[1];  // per-channel sum
        require(worst <= kInt32Max, "quant.overflow", step.node_id,
                "avgpool accumulator can reach " + str(worst));
      }
    }
  }

  // -- cost bookkeeping ----------------------------------------------------

  void check_report_cycles(const PlanStep& step, const Node& node) {
    (void)node;
    uint64_t expect = step.serial_cycles;
    if (!step.tile_costs.empty()) {
      uint64_t batch_total = 0;
      if (step.pipelined) {
        batch_total = pipeline_total(step.tile_costs);
      } else {
        for (const TileCost& tc : step.tile_costs) {
          batch_total += tc.compute + tc.dma_in + tc.dma_out;
        }
      }
      const uint64_t b =
          step.batch_fused
              ? static_cast<uint64_t>(std::max(1, plan_.options.batch))
              : 1;
      expect = (batch_total + b - 1) / b + step.serial_cycles;
    }
    require(step.report.total_cycles == expect, "report.cycles", step.node_id,
            "reported total " + str(static_cast<int64_t>(
                step.report.total_cycles)) +
                " cycles does not re-derive from the tile schedule (" +
                str(static_cast<int64_t>(expect)) + ")");
  }

  const CompiledPlan& plan_;
  VerifyReport report_;
};

}  // namespace

VerifyReport verify_plan(const CompiledPlan& plan) {
  VerifyReport rep = PlanVerifier(plan).run();
  auto& reg = metrics::registry();
  reg.counter("verify.runs").inc();
  reg.counter("verify.errors").inc(static_cast<uint64_t>(rep.errors()));
  reg.counter("verify.warnings").inc(static_cast<uint64_t>(rep.warnings()));
  return rep;
}

VerifyReport verify_shard(const CompiledPlan& plan, const ShardPlan& shard) {
  VerifyReport rep;
  auto require = [&](bool ok, const char* check, int node,
                     const std::string& msg) {
    ++rep.checks_run;
    if (!ok) rep.findings.push_back({VerifySeverity::kError, check, node, msg});
    return ok;
  };
  auto str = [](int64_t v) { return std::to_string(v); };

  require(plan.options.batch <= 1, "shard.batch", 0,
          "sharded plans must be compiled with batch == 1, got " +
              str(plan.options.batch));
  if (!require(shard.steps.size() == plan.steps.size(), "shard.steps", 0,
               str(static_cast<int64_t>(shard.steps.size())) +
                   " shard steps for " +
                   str(static_cast<int64_t>(plan.steps.size())) +
                   " plan steps")) {
    return rep;
  }

  uint64_t critical = 0, reduce = 0;
  for (size_t i = 0; i < shard.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    const StepShard& ss = shard.steps[i];
    require(ss.node_id == step.node_id, "shard.steps", step.node_id,
            "shard step order does not mirror the plan");
    if (!require(static_cast<int>(ss.slices.size()) == shard.num_clusters,
                 "shard.slices", step.node_id,
                 str(static_cast<int64_t>(ss.slices.size())) +
                     " slices for " + str(shard.num_clusters) +
                     " clusters")) {
      continue;
    }
    critical += ss.critical_cycles;
    reduce += ss.reduce_cycles;

    const bool sharded =
        step.shard_axis != ShardAxis::kNone && !step.tile_costs.empty();
    if (!sharded) {
      bool idle = ss.axis == ShardAxis::kNone;
      for (const ShardSlice& s : ss.slices) idle = idle && !s.active();
      require(idle && ss.critical_cycles == step.report.total_cycles,
              "shard.axis", step.node_id,
              "serial step must run whole on the root cluster");
      continue;
    }

    require(ss.axis == step.shard_axis, "shard.axis", step.node_id,
            "shard axis does not match the plan step");
    // every tile index assigned exactly once across the slices
    std::vector<int> seen(step.tile_costs.size(), 0);
    bool in_range = true;
    int64_t out_bytes_ok = 0;
    for (const ShardSlice& s : ss.slices) {
      int64_t slice_bytes = 0;
      for (int idx : s.tiles) {
        if (idx < 0 || idx >= static_cast<int>(seen.size())) {
          in_range = false;
          continue;
        }
        ++seen[static_cast<size_t>(idx)];
        slice_bytes += step.tiles_meta[static_cast<size_t>(idx)].out_bytes;
      }
      out_bytes_ok += (slice_bytes == s.out_bytes) ? 0 : 1;
    }
    require(in_range, "shard.tiles", step.node_id,
            "slice references a tile index outside the step's schedule");
    if (in_range) {
      int dup = -1, missing = -1;
      for (size_t t = 0; t < seen.size(); ++t) {
        if (seen[t] > 1 && dup < 0) dup = static_cast<int>(t);
        if (seen[t] == 0 && missing < 0) missing = static_cast<int>(t);
      }
      require(dup < 0, "shard.tiles", step.node_id,
              "tile " + str(dup) + " assigned to more than one cluster");
      require(missing < 0, "shard.tiles", step.node_id,
              "tile " + str(missing) + " assigned to no cluster");
    }
    require(out_bytes_ok == 0, "shard.out_bytes", step.node_id,
            "slice out_bytes does not match the sum of its tiles");
    uint64_t longest = 0;
    for (const ShardSlice& s : ss.slices) {
      longest = std::max(longest, s.cycles);
    }
    require(ss.critical_cycles ==
                longest + ss.serial_cycles + ss.reduce_cycles,
            "shard.cycles", step.node_id,
            "critical cycles do not re-derive from slices + serial + "
            "reduce");
  }
  require(shard.critical_path_cycles == critical &&
              shard.reduction_cycles == reduce,
          "shard.total", 0,
          "shard plan totals do not match the per-step sums");
  return rep;
}

}  // namespace decimate
