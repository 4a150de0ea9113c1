// Multi-cluster sharding scaling: modeled critical-path cycles/image,
// speedup over the single-cluster plan, per-cluster utilization and
// interconnect/reduction overhead for 1/2/4/8 clusters on ResNet18
// (conv-dominated, OY/channel tile shards) and the ViT FFN block
// (FC-dominated, token/K tile shards), read from each ShardPlanner
// schedule. Every schedule must pass verify_shard with zero findings
// (slices disjoint and complete, cycle totals consistent) — the bench
// fails hard otherwise. Results land in BENCH_shard.json.
//
//   ./bench_shard_scaling [--smoke] [--out PATH]
//
// --smoke shrinks the models and stops at 2 clusters so CI can run the
// bench in seconds.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/compile.hpp"
#include "shard/shard_planner.hpp"
#include "verify/verify.hpp"

using namespace decimate;

namespace {

struct Row {
  std::string model;
  int clusters = 0;
  uint64_t critical_cycles = 0;
  uint64_t single_cluster_cycles = 0;  // the 1-cluster plan baseline
  uint64_t reduction_cycles = 0;
  double speedup = 0.0;       // baseline / critical (cross-plan)
  double self_speedup = 0.0;  // same-plan unsharded / critical
  double avg_utilization = 0.0;
  bool verified = false;  // verify_shard found nothing
};

/// Shard `graph` across every cluster count: one shard-aware compile per
/// count (shared latency cache — tiles re-simulate only for new shapes),
/// scheduled by ShardPlanner and checked by verify_shard.
void scale_model(const std::string& name, const Graph& graph,
                 const std::vector<int>& cluster_counts,
                 std::vector<Row>& rows) {
  CompileOptions base;
  base.enable_isa = true;
  Compiler baseline_compiler(base);
  const CompiledPlan baseline_plan = baseline_compiler.compile(graph);
  const auto cache = baseline_compiler.shared_latencies();

  for (int n : cluster_counts) {
    CompileOptions opt = base;
    opt.num_clusters = n;
    Compiler compiler(opt, cache);
    const CompiledPlan plan = compiler.compile(graph);
    const ShardPlan sp = ShardPlanner(n).plan(plan);
    const VerifyReport report = verify_shard(plan, sp);
    if (!report.clean()) {
      std::cerr << name << " at " << n << " clusters: " << report.to_string()
                << "\n";
    }

    Row row;
    row.model = name;
    row.clusters = n;
    row.critical_cycles = sp.critical_path_cycles;
    row.single_cluster_cycles = baseline_plan.total_cycles;
    row.reduction_cycles = sp.reduction_cycles;
    row.speedup = static_cast<double>(baseline_plan.total_cycles) /
                  static_cast<double>(sp.critical_path_cycles);
    row.self_speedup = static_cast<double>(plan.total_cycles) /
                       static_cast<double>(sp.critical_path_cycles);
    row.avg_utilization = sp.avg_utilization();
    row.verified = report.clean();
    rows.push_back(row);
  }
}

void emit_json(std::ostream& os, bool smoke, const std::vector<Row>& rows) {
  os << "{\n  \"bench\": \"shard_scaling\",\n  \"smoke\": "
     << (smoke ? "true" : "false") << ",\n  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"model\": \"" << r.model
       << "\", \"clusters\": " << r.clusters
       << ", \"critical_path_cycles\": " << r.critical_cycles
       << ", \"single_cluster_cycles\": " << r.single_cluster_cycles
       << ", \"reduction_cycles\": " << r.reduction_cycles
       << ", \"speedup\": " << r.speedup
       << ", \"self_speedup\": " << r.self_speedup
       << ", \"avg_utilization\": " << r.avg_utilization
       << ", \"verified\": " << (r.verified ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_shard_scaling [--smoke] [--out PATH]\n";
      return 1;
    }
  }
  const std::vector<int> cluster_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  std::vector<Row> rows;

  Resnet18Options mopt;
  mopt.sparsity_m = 8;
  mopt.input_hw = smoke ? 16 : 32;
  scale_model("resnet18", build_resnet18(mopt), cluster_counts, rows);

  const int tokens = smoke ? 96 : 196;
  const int d = smoke ? 128 : 384;
  const int hidden = smoke ? 512 : 1536;
  scale_model("vit_ffn", build_ffn_block(tokens, d, hidden, 8, 11),
              cluster_counts, rows);

  Table t({"model", "clusters", "Mcyc/img", "speedup", "self", "util",
           "reduce kcyc", "verified"});
  bool all_verified = true;
  for (const Row& r : rows) {
    all_verified = all_verified && r.verified;
    t.add_row({r.model, std::to_string(r.clusters),
               Table::num(r.critical_cycles / 1e6, 2),
               Table::num(r.speedup, 2) + "x",
               Table::num(r.self_speedup, 2) + "x",
               Table::num(r.avg_utilization, 2),
               Table::num(r.reduction_cycles / 1e3, 1),
               r.verified ? "yes" : "NO"});
  }
  std::cout << t;

  if (!all_verified) {
    std::cerr << "FAIL: verify_shard reported findings\n";
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  emit_json(out, smoke, rows);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
