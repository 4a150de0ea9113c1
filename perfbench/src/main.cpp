// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see workloads.hpp for their fixed rates, deadlines and mixes):
//   resnet18_nm_closed   ResNet18 dense / 1:8 / 1:16, batch 8, closed loop
//   vit_ffn_open         ViT FFN dense / 1:8, Poisson, ~half capacity
//   mixed_registry_open  ResNet18 1:16 + ViT FFN 1:8, Poisson, ~half capacity,
//                        cold start from a plan registry
//
// Every output is checked bit-exact against the scalar reference ops. The
// report lists every metric with its unit; the last line is one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1, which also writes the per-step profile and the span trace
// under .bench_build/perfbench-out/).

#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload resnet18_nm_closed|vit_ffn_open|"
               "mixed_registry_open --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::strcmp(val, "1") == 0;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return usage();
  try {
    if (args.workload == "resnet18_nm_closed") {
      return perfbench::run_closed_loop(args);
    }
    if (args.workload == "vit_ffn_open") {
      return perfbench::run_vit_ffn_open(args);
    }
    if (args.workload == "mixed_registry_open") {
      return perfbench::run_mixed_registry_open(args);
    }
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
