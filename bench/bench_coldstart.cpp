// Cold-start from a warm plan registry: the deployment story the artifact
// subsystem exists for. Phase `--build` compiles every serving variant of
// ResNet18 + a ViT FFN block (batch 1, batch 4, 2-cluster sharded),
// publishing each plan to the registry and the ISS latency cache to
// <registry>/latencies.bin. Phase `--serve` then stands up a *fresh*
// PlanStore against the same registry and requests the same variants —
// asserting the cold start performs ZERO compiles and ZERO ISS
// invocations, and that every variant (run / run_batch / run of the
// 2-cluster plan) is bit-exact with the build phase, and the 2-cluster
// plan's ShardPlanner critical path identical (checked via CRCs carried
// in <registry>/coldstart_build.tsv).
//
// On Linux the serve phase additionally forks two child processes that
// each mmap-load every artifact in the registry concurrently, then reads
// /proc/self/smaps for the `.plan` mappings: Private_Dirty must be 0 and
// Shared_Clean > 0 in both children — the kernel is serving one physical
// copy of the weight sections to both processes.
//
//   ./bench_coldstart [--registry DIR] [--build] [--serve] [--out PATH]
//
// With neither --build nor --serve, both phases run in order (the serve
// phase still uses a fresh store + fresh latency cache, so its zero-work
// assertions are meaningful). CI runs the phases as separate invocations
// with a full build-tree wipe in between, proving the artifact alone —
// not any in-process state — carries the plans. Results land in
// BENCH_coldstart.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/registry.hpp"
#include "common/serde.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "serve/plan_store.hpp"
#include "shard/shard_planner.hpp"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace decimate;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseStats {
  double wall_ms = 0.0;
  int compiles = 0;
  int registry_loads = 0;
  uint64_t iss_misses = 0;
  std::map<std::string, uint32_t> crcs;  // model -> CRC over all outputs
};

constexpr int kVariantsPerModel = 3;  // batch=1, batch=4, 1x2-cluster

/// One full pass over every model and serving variant against `dir`.
/// The first pass compiles + publishes; a later pass in a fresh process
/// (or fresh store) must do neither.
PhaseStats run_phase(const std::string& dir) {
  const double t0 = now_ms();
  CompileOptions copt;
  copt.enable_isa = true;
  // the registry carries the ISS warm file next to the artifacts
  copt.latency_cache_path = dir + "/latencies.bin";
  PlanStore store(copt);
  store.attach_registry(dir);

  Resnet18Options mopt;
  mopt.sparsity_m = 8;
  mopt.input_hw = 16;
  const Graph resnet = build_resnet18(mopt);
  const Graph ffn = build_ffn_block(96, 128, 512, 8, 11);
  struct Spec {
    const char* name;
    const Graph* graph;
    uint64_t seed;
  };
  const std::vector<Spec> specs = {{"resnet18", &resnet, 301},
                                   {"vit_ffn", &ffn, 302}};

  ExecutionEngine engine;
  PhaseStats st;
  for (const Spec& spec : specs) {
    const int id = store.add_model(*spec.graph);
    const CompiledPlan& p1 = store.plan(id, 1, 1);
    const CompiledPlan& p4 = store.plan(id, 4, 1);
    const CompiledPlan& pc = store.plan(id, 1, 2);

    // deterministic inputs: both phases hash identical traffic
    Rng rng(spec.seed);
    const auto& shape = spec.graph->node(0).out_shape;
    const Tensor8 input = Tensor8::random(shape, rng);
    std::vector<Tensor8> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(Tensor8::random(shape, rng));

    uint32_t crc = serde::crc32(engine.run(p1, input).output.bytes());
    const BatchRun br = engine.run_batch(p4, batch);
    for (const NetworkRun& r : br.runs) crc = serde::crc32(r.output.bytes(), crc);
    crc = serde::crc32(engine.run(pc, input).output.bytes(), crc);
    // shard planning a loaded plan measures any kFcC split through the
    // plan's latency cache: the CRC proves the schedule, the ISS count
    // that it came from the registry
    const uint64_t critical = ShardPlanner(2).plan(pc).critical_path_cycles;
    crc = serde::crc32({reinterpret_cast<const uint8_t*>(&critical),
                        sizeof critical},
                       crc);
    st.crcs[spec.name] = crc;
  }
  st.compiles = store.compiles();
  st.registry_loads = store.registry_loads();
  st.iss_misses = store.shared_latencies()->misses();
  store.save_latencies();
  st.wall_ms = now_ms() - t0;
  return st;
}

// --- build metadata handoff (survives the CI build-tree wipe) ---------------

std::string meta_path(const std::string& dir) {
  return dir + "/coldstart_build.tsv";
}

void write_meta(const std::string& dir, const PhaseStats& st) {
  std::ofstream out(meta_path(dir));
  DECIMATE_CHECK(out.good(), "cannot write " << meta_path(dir));
  out << "wall_ms\t" << st.wall_ms << "\n";
  out << "compiles\t" << st.compiles << "\n";
  out << "iss_misses\t" << st.iss_misses << "\n";
  for (const auto& [name, crc] : st.crcs) out << "crc\t" << name << "\t" << crc
                                              << "\n";
}

bool read_meta(const std::string& dir, PhaseStats& st) {
  std::ifstream in(meta_path(dir));
  if (!in.good()) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "wall_ms") {
      ls >> st.wall_ms;
    } else if (key == "compiles") {
      ls >> st.compiles;
    } else if (key == "iss_misses") {
      ls >> st.iss_misses;
    } else if (key == "crc") {
      std::string name;
      uint32_t crc = 0;
      ls >> name >> crc;
      st.crcs[name] = crc;
    }
  }
  return true;
}

// --- mmap sharing across processes ------------------------------------------

struct SmapsTotals {
  uint64_t rss_kb = 0;
  uint64_t shared_kb = 0;         // Shared_Clean + Shared_Dirty
  uint64_t private_clean_kb = 0;
  uint64_t private_dirty_kb = 0;
};

struct SharingReport {
  bool supported = false;
  bool shared = false;
  std::vector<SmapsTotals> per_process;
};

#if defined(__linux__)

/// Sum the smaps fields of every `.plan` mapping in this process.
/// smaps alternates mapping headers (start with a hex digit or lowercase
/// hex letter) with `Field:  N kB` lines (start with an uppercase
/// letter); the path, when present, ends the header line.
SmapsTotals plan_smaps() {
  SmapsTotals t;
  std::ifstream in("/proc/self/smaps");
  std::string line;
  bool in_plan = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const char c = line[0];
    const bool header = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (header) {
      in_plan = line.size() > 5 &&
                line.compare(line.size() - 5, 5, ".plan") == 0;
      continue;
    }
    if (!in_plan) continue;
    uint64_t kb = 0;
    char key[64] = {0};
    if (std::sscanf(line.c_str(), "%63[^:]: %llu kB", key,
                    reinterpret_cast<unsigned long long*>(&kb)) != 2) {
      continue;
    }
    if (std::strcmp(key, "Rss") == 0) t.rss_kb += kb;
    if (std::strcmp(key, "Shared_Clean") == 0 ||
        std::strcmp(key, "Shared_Dirty") == 0) {
      t.shared_kb += kb;
    }
    if (std::strcmp(key, "Private_Clean") == 0) t.private_clean_kb += kb;
    if (std::strcmp(key, "Private_Dirty") == 0) t.private_dirty_kb += kb;
  }
  return t;
}

/// Fork `n` children that concurrently mmap-load every artifact in the
/// registry (load_plan's CRC pass faults in every page, weights
/// included), hold the mappings while each reads its own smaps, and
/// report the totals. Lock-step protocol over pipes: child sends 'R'
/// (loaded), parent sends 'G' (everyone is mapped — measure), child
/// sends its totals, parent sends 'X' (everyone measured — release).
SharingReport measure_sharing(const std::string& dir, int n) {
  SharingReport rep;
  rep.supported = true;
  struct Child {
    int to_child[2];
    int from_child[2];
    pid_t pid;
  };
  std::vector<Child> children(static_cast<size_t>(n));
  for (Child& ch : children) {
    DECIMATE_CHECK(pipe(ch.to_child) == 0 && pipe(ch.from_child) == 0,
                   "pipe() failed");
    ch.pid = fork();
    DECIMATE_CHECK(ch.pid >= 0, "fork() failed");
    if (ch.pid == 0) {
      close(ch.to_child[1]);
      close(ch.from_child[0]);
      {
        PlanRegistry reg(dir);
        std::vector<CompiledPlan> plans;
        for (const artifact::ArtifactInfo& info : reg.list()) {
          auto p = reg.load(info.plan_fingerprint);
          if (p.has_value()) plans.push_back(std::move(*p));
        }
        char token = 'R';
        (void)!write(ch.from_child[1], &token, 1);
        (void)!read(ch.to_child[0], &token, 1);  // 'G'
        const SmapsTotals t = plan_smaps();
        char buf[128];
        const int len = std::snprintf(
            buf, sizeof buf, "%llu %llu %llu %llu\n",
            static_cast<unsigned long long>(t.rss_kb),
            static_cast<unsigned long long>(t.shared_kb),
            static_cast<unsigned long long>(t.private_clean_kb),
            static_cast<unsigned long long>(t.private_dirty_kb));
        (void)!write(ch.from_child[1], buf, static_cast<size_t>(len));
        (void)!read(ch.to_child[0], &token, 1);  // 'X': plans still mapped
      }
      _exit(0);
    }
    close(ch.to_child[0]);
    close(ch.from_child[1]);
  }
  char token = 0;
  for (Child& ch : children) {
    DECIMATE_CHECK(read(ch.from_child[0], &token, 1) == 1 && token == 'R',
                   "child failed to load the registry");
  }
  token = 'G';
  for (Child& ch : children) (void)!write(ch.to_child[1], &token, 1);
  for (Child& ch : children) {
    std::string line;
    char c = 0;
    while (read(ch.from_child[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    SmapsTotals t;
    std::istringstream ls(line);
    ls >> t.rss_kb >> t.shared_kb >> t.private_clean_kb >> t.private_dirty_kb;
    rep.per_process.push_back(t);
  }
  token = 'X';
  for (Child& ch : children) {
    (void)!write(ch.to_child[1], &token, 1);
    int status = 0;
    waitpid(ch.pid, &status, 0);
    close(ch.to_child[1]);
    close(ch.from_child[0]);
  }
  rep.shared = !rep.per_process.empty();
  for (const SmapsTotals& t : rep.per_process) {
    // read-only MAP_SHARED: no process may have dirtied a private copy,
    // and with both children mapped at once the resident pages must be
    // counted shared
    rep.shared = rep.shared && t.private_dirty_kb == 0 && t.shared_kb > 0;
  }
  return rep;
}

#else

SharingReport measure_sharing(const std::string&, int) { return {}; }

#endif  // __linux__

void emit_json(std::ostream& os, const std::string& dir, bool have_build,
               const PhaseStats& build, const PhaseStats& serve,
               bool bit_exact, const std::vector<artifact::ArtifactInfo>& infos,
               const SharingReport& sharing) {
  os << "{\n  \"bench\": \"coldstart\",\n  \"registry_dir\": \"" << dir
     << "\",\n";
  if (have_build) {
    os << "  \"build\": {\"wall_ms\": " << build.wall_ms
       << ", \"compiles\": " << build.compiles
       << ", \"iss_misses\": " << build.iss_misses << "},\n";
  }
  os << "  \"serve\": {\"wall_ms\": " << serve.wall_ms
     << ", \"compiles\": " << serve.compiles
     << ", \"registry_loads\": " << serve.registry_loads
     << ", \"iss_misses\": " << serve.iss_misses << "},\n";
  if (have_build && serve.wall_ms > 0.0) {
    os << "  \"coldstart_speedup\": " << build.wall_ms / serve.wall_ms
       << ",\n";
  }
  os << "  \"bit_exact\": " << (bit_exact ? "true" : "false")
     << ",\n  \"artifacts\": [\n";
  for (size_t i = 0; i < infos.size(); ++i) {
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(infos[i].plan_fingerprint));
    os << "    {\"fingerprint\": \"" << fp << "\", \"bytes\": "
       << infos[i].total_bytes << ", \"weight_bytes\": "
       << infos[i].weight_section_bytes << "}"
       << (i + 1 < infos.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"mmap_sharing\": {\"supported\": "
     << (sharing.supported ? "true" : "false") << ", \"shared\": "
     << (sharing.shared ? "true" : "false") << ", \"per_process\": [";
  for (size_t i = 0; i < sharing.per_process.size(); ++i) {
    const SmapsTotals& t = sharing.per_process[i];
    os << (i ? ", " : "") << "{\"rss_kb\": " << t.rss_kb << ", \"shared_kb\": "
       << t.shared_kb << ", \"private_clean_kb\": " << t.private_clean_kb
       << ", \"private_dirty_kb\": " << t.private_dirty_kb << "}";
  }
  os << "]}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "coldstart_registry";
  std::string out_path = "BENCH_coldstart.json";
  bool do_build = false;
  bool do_serve = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--registry") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--build") == 0) {
      do_build = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      do_serve = true;
    } else {
      std::cerr << "usage: bench_coldstart [--registry DIR] [--build] "
                   "[--serve] [--out PATH]\n";
      return 1;
    }
  }
  if (!do_build && !do_serve) do_build = do_serve = true;

  PhaseStats build;
  if (do_build) {
    build = run_phase(dir);
    write_meta(dir, build);
    std::cout << "build: " << build.compiles << " compiles, "
              << build.iss_misses << " ISS invocations, "
              << build.wall_ms << " ms wall -> " << dir << "\n";
    if (!do_serve) return 0;
  }

  // --- cold start: fresh store, fresh latency cache, same registry ----------
  const PhaseStats serve = run_phase(dir);
  const bool have_build = do_build || read_meta(dir, build);
  std::cout << "serve: " << serve.compiles << " compiles, "
            << serve.registry_loads << " registry loads, " << serve.iss_misses
            << " ISS invocations, " << serve.wall_ms << " ms wall\n";

  bool ok = true;
  if (serve.compiles != 0) {
    std::cerr << "FAIL: warm-registry cold start compiled " << serve.compiles
              << " plans (want 0)\n";
    ok = false;
  }
  if (serve.iss_misses != 0) {
    std::cerr << "FAIL: warm-registry cold start ran the ISS "
              << serve.iss_misses << " times (want 0)\n";
    ok = false;
  }
  if (serve.registry_loads != 2 * kVariantsPerModel) {
    std::cerr << "FAIL: expected " << 2 * kVariantsPerModel
              << " registry loads, got " << serve.registry_loads << "\n";
    ok = false;
  }
  bool bit_exact = have_build;
  if (have_build) {
    for (const auto& [name, crc] : serve.crcs) {
      const auto it = build.crcs.find(name);
      if (it == build.crcs.end() || it->second != crc) {
        std::cerr << "FAIL: " << name
                  << " outputs differ from the build phase\n";
        bit_exact = false;
      }
    }
    if (bit_exact) {
      std::cout << "outputs bit-exact with the build phase ("
                << serve.crcs.size()
                << " models, run+run_batch+2-cluster plan and schedule)\n";
    }
    ok = ok && bit_exact;
  }

  const SharingReport sharing = measure_sharing(dir, 2);
  if (sharing.supported) {
    for (size_t i = 0; i < sharing.per_process.size(); ++i) {
      const SmapsTotals& t = sharing.per_process[i];
      std::cout << "process " << i << ": .plan mappings rss " << t.rss_kb
                << " kB, shared " << t.shared_kb << " kB, private dirty "
                << t.private_dirty_kb << " kB\n";
    }
    if (!sharing.shared) {
      std::cerr << "FAIL: concurrent processes do not share the artifact "
                   "mappings\n";
      ok = false;
    }
  } else {
    std::cout << "mmap sharing check skipped (not Linux)\n";
  }

  PlanRegistry registry(dir);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  emit_json(out, dir, have_build, build, serve, bit_exact, registry.list(),
            sharing);
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
