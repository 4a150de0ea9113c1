// Full-configuration verification sweep: statically verify every plan the
// compiler produces for ResNet18 and the ViT FFN block across the whole
// deployment matrix — sparsity (dense / 1:2 / 1:4 / 1:8 / 1:16), SW vs
// xDecimate kernels, batch size, and cluster count (multi-cluster plans
// are additionally sharded and the ShardPlan verified). A single finding
// anywhere fails the bench with a nonzero exit — this is the "no plan the
// compiler emits is provably wrong" gate CI runs on every change.
//
//   ./bench_verify_all [--smoke] [--out PATH]
//
// --smoke shrinks the models so CI finishes in seconds; results (per-config
// check counts and any findings) land in BENCH_verify.json.

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
  int m = 0;
  bool isa = false;
  int batch = 1;
  int clusters = 1;
  int checks = 0;        // verify_plan + verify_shard checks evaluated
  int findings = 0;      // error- or warn-level findings (0 = pass)
  std::string detail;    // first finding, for the report
};

/// Verify one (model, sparsity, kernels, batch, clusters) configuration:
/// compile against the shared latency cache, run the static verifier, and
/// for unbatched multi-cluster plans also verify the shard partitioning.
Row verify_config(const std::string& name, const Graph& graph, int m,
                  bool isa, int batch, int clusters,
                  const std::shared_ptr<TileLatencyCache>& cache) {
  CompileOptions opt;
  opt.enable_isa = isa;
  opt.batch = batch;
  opt.num_clusters = clusters;
  opt.verify_plans = false;  // the bench wants the report, not the throw
  Compiler compiler(opt, cache);
  const CompiledPlan plan = compiler.compile(graph);

  Row row{name, m, isa, batch, clusters, 0, 0, ""};
  VerifyReport rep = verify_plan(plan);
  row.checks += rep.checks_run;
  if (clusters > 1 && batch == 1) {
    const ShardPlan shard = shard_plan(plan);
    const VerifyReport srep = verify_shard(plan, shard);
    row.checks += srep.checks_run;
    rep.findings.insert(rep.findings.end(), srep.findings.begin(),
                        srep.findings.end());
  }
  row.findings = static_cast<int>(rep.findings.size());
  if (!rep.findings.empty()) {
    const VerifyFinding& f = rep.findings.front();
    row.detail = f.check + " (node " + std::to_string(f.node_id) + "): " +
                 f.message;
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"verify_all\",\n  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"m\": " << r.m
        << ", \"isa\": " << (r.isa ? "true" : "false")
        << ", \"batch\": " << r.batch << ", \"clusters\": " << r.clusters
        << ", \"checks\": " << r.checks << ", \"findings\": " << r.findings
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_verify.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const auto cache = std::make_shared<TileLatencyCache>();
  const std::vector<int> sparsities = {0, 2, 4, 8, 16};
  const std::vector<int> batches = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 4};
  const std::vector<int> cluster_counts = smoke ? std::vector<int>{1, 2}
                                                : std::vector<int>{1, 2, 4};

  std::vector<Row> rows;
  for (const int m : sparsities) {
    // ResNet18 (conv-dominated) and the transformer FFN pair that
    // dominates ViT latency, at each sparsity level
    Resnet18Options ropt;
    ropt.sparsity_m = m;
    ropt.input_hw = smoke ? 16 : 32;
    const Graph resnet = build_resnet18(ropt);
    const Graph ffn = smoke ? build_ffn_block(8, 64, 128, m, 21)
                            : build_ffn_block(196, 384, 1536, m, 21);
    for (const bool isa : {false, true}) {
      for (const int batch : batches) {
        for (const int clusters : cluster_counts) {
          rows.push_back(verify_config("resnet18", resnet, m, isa, batch,
                                       clusters, cache));
          rows.push_back(verify_config("vit_ffn", ffn, m, isa, batch,
                                       clusters, cache));
        }
      }
    }
  }

  Table table({"model", "m", "kernels", "batch", "clusters", "checks",
               "findings"});
  int total_checks = 0, total_findings = 0;
  for (const Row& r : rows) {
    table.add_row({r.model,
                   r.m == 0 ? std::string("dense") : "1:" +
                       std::to_string(r.m),
                   r.isa ? "xdec" : "sw", std::to_string(r.batch),
                   std::to_string(r.clusters), std::to_string(r.checks),
                   std::to_string(r.findings)});
    total_checks += r.checks;
    total_findings += r.findings;
    if (!r.detail.empty()) {
      std::cerr << "FINDING [" << r.model << " m=" << r.m
                << " isa=" << r.isa << " b=" << r.batch
                << " nc=" << r.clusters << "] " << r.detail << "\n";
    }
  }
  std::cout << table;
  write_json(out_path, rows);
  std::cout << "\n" << rows.size() << " configs, " << total_checks
            << " checks, " << total_findings << " findings -> " << out_path
            << "\n";
  if (total_findings != 0) {
    std::cerr << "bench_verify_all: FAILED (" << total_findings
              << " findings)\n";
    return 1;
  }
  return 0;
}
