// Plan-artifact registry tests: serde primitives, serialize -> load
// round-trips that must be bit-exact across every execution path
// (ExecutionEngine::run, pipelined run_batch) and reproduce the shard
// schedule without the ISS, the admission gate (truncation, bit flips,
// version skew, forged fingerprints, out-of-range gather columns, edited
// counts), concurrent loads, graph ownership of loaded plans, and the
// PlanStore registry tier's zero-compile / zero-ISS cold start and its
// fallback on a bad artifact.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "artifact/plan_io.hpp"
#include "artifact/registry.hpp"
#include "common/serde.hpp"
#include "compiler/fingerprint.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "serve/plan_store.hpp"
#include "shard/shard_planner.hpp"
#include "trace/metrics.hpp"

namespace decimate {
namespace {

namespace fs = std::filesystem;

CompileOptions isa_options() {
  CompileOptions opt;
  opt.enable_isa = true;
  return opt;
}

/// One latency cache for the whole binary: tile geometries repeat across
/// tests, so every unique tile is ISS-measured once per test run.
std::shared_ptr<TileLatencyCache> shared_test_cache() {
  static auto cache = std::make_shared<TileLatencyCache>();
  return cache;
}

Graph scaled_resnet18(int m) {
  Resnet18Options opt;
  opt.sparsity_m = m;
  opt.input_hw = 16;
  return build_resnet18(opt);
}

Graph small_ffn() { return build_ffn_block(32, 64, 128, 8, 11); }

Tensor8 random_input(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  return Tensor8::random(g.node(0).out_shape, rng);
}

CompiledPlan compile_plan(const Graph& g, const CompileOptions& opt) {
  Compiler compiler(opt, shared_test_cache());
  return compiler.compile(g);
}

/// Serialize + load through the byte path (no files).
CompiledPlan round_trip(const CompiledPlan& plan) {
  const auto bytes = artifact::serialize_plan(plan);
  return artifact::load_plan_from_bytes(bytes, "round-trip");
}

/// A scratch directory that cleans up after itself.
struct TempDir {
  TempDir() {
    path = (fs::temp_directory_path() /
            ("decimate_artifact_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter()++)))
               .string();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
  std::string path;
};

// ---------------------------------------------------------------------------
// serde primitives (shared with the latency-cache warm files)
// ---------------------------------------------------------------------------

TEST(Serde, RoundTripsEveryFieldWidth) {
  serde::Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-7);
  w.i64(-(1ll << 40));
  w.f64(-3.25);
  w.boolean(true);
  w.str("plan");
  w.align(16);
  const size_t aligned = w.pos();
  w.u8(1);

  serde::Reader r(w.buffer(), "test");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -(1ll << 40));
  EXPECT_EQ(r.f64(), -3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "plan");
  r.skip_align(16);
  EXPECT_EQ(r.pos(), aligned);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_TRUE(r.done());
}

TEST(Serde, ReaderThrowsOnTruncation) {
  serde::Writer w;
  w.u32(42);
  serde::Reader r(w.buffer(), "tiny");
  r.u16();
  EXPECT_THROW(r.u64(), Error);  // only 2 bytes left
}

TEST(Serde, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value
  const char* s = "123456789";
  EXPECT_EQ(serde::crc32({reinterpret_cast<const uint8_t*>(s), 9}),
            0xcbf43926u);
  // chaining a split buffer equals one pass
  const auto span = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(serde::crc32(span.subspan(4), serde::crc32(span.first(4))),
            0xcbf43926u);
}

// ---------------------------------------------------------------------------
// round-trip bit-exactness
// ---------------------------------------------------------------------------

TEST(PlanArtifact, ResnetSweepRoundTripsBitExact) {
  for (const int m : {0, 2, 4, 8, 16}) {
    const Graph g = scaled_resnet18(m);
    const CompiledPlan plan = compile_plan(g, isa_options());
    const CompiledPlan loaded = round_trip(plan);

    EXPECT_EQ(loaded.total_cycles, plan.total_cycles) << "m=" << m;
    EXPECT_EQ(loaded.total_macs, plan.total_macs);
    EXPECT_EQ(loaded.weight_bytes, plan.weight_bytes);
    ASSERT_EQ(loaded.steps.size(), plan.steps.size());
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      EXPECT_EQ(loaded.steps[i].report.total_cycles,
                plan.steps[i].report.total_cycles);
      EXPECT_EQ(loaded.steps[i].report.impl, plan.steps[i].report.impl);
    }

    const Tensor8 input = random_input(g, 100 + static_cast<uint64_t>(m));
    ExecutionEngine engine;
    const NetworkRun fresh = engine.run(plan, input);
    const NetworkRun reloaded = engine.run(loaded, input);
    EXPECT_EQ(reloaded.output, fresh.output) << "m=" << m;
    EXPECT_EQ(reloaded.total_cycles, fresh.total_cycles);
  }
}

TEST(PlanArtifact, FfnBatchRunRoundTripsBitExact) {
  const Graph g = small_ffn();
  CompileOptions opt = isa_options();
  opt.batch = 4;
  const CompiledPlan plan = compile_plan(g, opt);
  const CompiledPlan loaded = round_trip(plan);

  std::vector<Tensor8> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(random_input(g, 200 + static_cast<uint64_t>(i)));
  }
  ExecutionEngine engine;
  const BatchRun fresh = engine.run_batch(plan, inputs);
  const BatchRun reloaded = engine.run_batch(loaded, inputs);
  EXPECT_EQ(reloaded.batch_cycles, fresh.batch_cycles);
  ASSERT_EQ(reloaded.runs.size(), fresh.runs.size());
  for (size_t i = 0; i < fresh.runs.size(); ++i) {
    EXPECT_EQ(reloaded.runs[i].output, fresh.runs[i].output);
  }
}

TEST(PlanArtifact, ShardPlanRoundTripsIssFree) {
  const Graph g = small_ffn();
  CompileOptions opt = isa_options();
  opt.num_clusters = 2;
  CompiledPlan plan = compile_plan(g, opt);

  // shard-plan BEFORE serializing so the kFcC measurements (if the
  // planner takes that path) land in the latency section too
  const ShardPlan fresh = ShardPlanner(2).plan(plan);

  const auto bytes = artifact::serialize_plan(plan);
  auto cold_cache = std::make_shared<TileLatencyCache>();
  const CompiledPlan loaded =
      artifact::load_plan_from_bytes(bytes, "shard-test", cold_cache);

  const ShardPlan reloaded = ShardPlanner(2).plan(loaded);
  EXPECT_EQ(reloaded.critical_path_cycles, fresh.critical_path_cycles);
  EXPECT_EQ(reloaded.reduction_cycles, fresh.reduction_cycles);
  EXPECT_EQ(reloaded.cluster_busy_cycles, fresh.cluster_busy_cycles);
  // zero ISS in the consumer: every tile the shard planner needed was
  // embedded in the artifact's latency section (misses == simulations)
  EXPECT_EQ(cold_cache->misses(), 0u);

  const Tensor8 input = random_input(g, 7);
  ExecutionEngine engine;
  const NetworkRun ran = engine.run(loaded, input);
  EXPECT_EQ(ran.output, engine.run(plan, input).output);
  EXPECT_EQ(ran.total_cycles, plan.total_cycles);
}

TEST(PlanArtifact, LoadedPlanOwnsItsGraph) {
  std::vector<uint8_t> bytes;
  Tensor8 input;
  NetworkRun fresh;
  {
    const Graph g = small_ffn();
    const CompiledPlan plan = compile_plan(g, isa_options());
    input = random_input(g, 5);
    fresh = ExecutionEngine().run(plan, input);
    bytes = artifact::serialize_plan(plan);
    // g and plan die here; the artifact must be self-contained
  }
  const CompiledPlan loaded =
      artifact::load_plan_from_bytes(bytes, "ownership");
  ASSERT_NE(loaded.owned_graph, nullptr);
  EXPECT_EQ(loaded.graph, loaded.owned_graph.get());
  const NetworkRun reloaded = ExecutionEngine().run(loaded, input);
  EXPECT_EQ(reloaded.output, fresh.output);
}

TEST(PlanArtifact, PayloadViewsAliasTheArtifactBytes) {
  const Graph g = small_ffn();
  const CompiledPlan plan = compile_plan(g, isa_options());
  TempDir dir;
  PlanRegistry registry(dir.path);
  const std::string path = registry.publish(plan);

  const auto file = MappedFile::open(path);
  ASSERT_NE(file, nullptr);
  const CompiledPlan loaded = artifact::load_plan(file);
  bool saw_sparse = false;
  for (const PlanStep& s : loaded.steps) {
    if (!s.has_packed) continue;
    saw_sparse = true;
    // the packed payload must be a view INTO the mapping, not a copy
    EXPECT_TRUE(s.packed.values.is_view());
    const auto* p = reinterpret_cast<const uint8_t*>(s.packed.values.data());
    EXPECT_GE(p, file->data());
    EXPECT_LT(p, file->data() + file->size());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    EXPECT_TRUE(s.host.val.is_view());
  }
  EXPECT_TRUE(saw_sparse);
}

// ---------------------------------------------------------------------------
// admission gate
// ---------------------------------------------------------------------------

struct Corruptible {
  std::vector<uint8_t> bytes;
  explicit Corruptible(const CompiledPlan& plan)
      : bytes(artifact::serialize_plan(plan)) {}

  // Section ids, in the order of the header's section table.
  static constexpr size_t kPlanSection = 1, kWeightSection = 3;

  /// Byte offset of section `id`'s table entry: after magic, version,
  /// both fingerprints and the count, entries of id, offset, size, crc.
  static size_t entry(size_t id) {
    return 4 + 4 + 8 + 8 + 4 + id * (1 + 8 + 8 + 4);
  }

  uint64_t get_u64(size_t at) const {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes[at + i]) << (8 * i);
    }
    return v;
  }
  void put_u32(size_t at, uint32_t v) {
    for (size_t i = 0; i < 4; ++i) {
      bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  std::span<const uint8_t> section(size_t id) const {
    return std::span<const uint8_t>(bytes).subspan(
        static_cast<size_t>(get_u64(entry(id) + 1)),
        static_cast<size_t>(get_u64(entry(id) + 9)));
  }

  /// File offset of the first `pattern` inside section `id` (0 when
  /// absent).
  size_t find(size_t id, const std::vector<uint8_t>& pattern) const {
    const auto sec = section(id);
    const auto it =
        std::search(sec.begin(), sec.end(), pattern.begin(), pattern.end());
    return it == sec.end() ? 0
                           : static_cast<size_t>(&*it - bytes.data());
  }

  /// Re-seal after an edit: section `id`'s CRC in its table entry, then
  /// the header CRC over everything before it. Only the loader's own
  /// checks can then catch the edit.
  void reseal(size_t id) {
    put_u32(entry(id) + 17, serde::crc32(section(id)));
    put_u32(artifact::kHeaderBytes - 4,
            serde::crc32(std::span<const uint8_t>(bytes).first(
                artifact::kHeaderBytes - 4)));
  }
};

/// Little-endian bytes of the low `n` bytes of `v`.
std::vector<uint8_t> le(uint64_t v, size_t n) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  return out;
}

TEST(PlanArtifact, RejectsTruncation) {
  const Graph g = small_ffn();
  Corruptible a(compile_plan(g, isa_options()));

  auto short_bytes = a.bytes;
  short_bytes.resize(50);  // shorter than the header
  VerifyReport r = artifact::verify_artifact(short_bytes, "trunc");
  EXPECT_TRUE(r.has("artifact.magic"));
  EXPECT_FALSE(r.ok());

  auto torn = a.bytes;
  torn.resize(a.bytes.size() / 2);  // header intact, sections torn
  r = artifact::verify_artifact(torn, "torn");
  EXPECT_TRUE(r.has("artifact.bounds"));
  EXPECT_THROW(artifact::load_plan_from_bytes(torn, "torn"), VerifyError);
}

TEST(PlanArtifact, RejectsWeightSectionBitFlip) {
  const Graph g = small_ffn();
  Corruptible a(compile_plan(g, isa_options()));
  // the weight section is the last section: flip a byte near the end
  a.bytes[a.bytes.size() - 1] ^= 0x40;
  const VerifyReport r = artifact::verify_artifact(a.bytes, "flip");
  EXPECT_TRUE(r.has("artifact.crc"));
  EXPECT_THROW(artifact::load_plan_from_bytes(a.bytes, "flip"), VerifyError);
}

TEST(PlanArtifact, RejectsVersionSkew) {
  const Graph g = small_ffn();
  Corruptible a(compile_plan(g, isa_options()));
  a.bytes[4] += 1;  // format version field follows the 4-byte magic
  const VerifyReport r = artifact::verify_artifact(a.bytes, "skew");
  EXPECT_TRUE(r.has("artifact.magic"));
  EXPECT_THROW(artifact::load_plan_from_bytes(a.bytes, "skew"), VerifyError);
}

TEST(PlanArtifact, RejectsForgedFingerprint) {
  const Graph g = small_ffn();
  Corruptible a(compile_plan(g, isa_options()));
  // forge the header's plan fingerprint (offset 8, after magic+version)
  // and re-seal the header CRC so only the artifact.fingerprint
  // re-derivation can catch the lie
  a.bytes[8] ^= 0xff;
  const uint32_t crc = serde::crc32(
      std::span<const uint8_t>(a.bytes).first(artifact::kHeaderBytes - 4));
  for (size_t i = 0; i < 4; ++i) {
    a.bytes[artifact::kHeaderBytes - 4 + i] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_TRUE(artifact::verify_artifact(a.bytes, "forged").ok());
  try {
    artifact::load_plan_from_bytes(a.bytes, "forged");
    FAIL() << "forged fingerprint was admitted";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().has("artifact.fingerprint"));
  }
}

/// A copy of `plan` whose first sparse step gathers from column 65535,
/// past the end of any dense weight row in these models.
CompiledPlan with_out_of_range_column(const CompiledPlan& plan) {
  CompiledPlan bad = plan;
  for (PlanStep& s : bad.steps) {
    if (!s.host.sparse()) continue;
    SharedBuf<uint16_t> col;  // own copy: plan copies share payloads
    for (const uint16_t c : s.host.col) col.push_back(c);
    col[0] = 65535;
    s.host.col = col;
    return bad;
  }
  ADD_FAILURE() << "plan has no sparse step";
  return bad;
}

TEST(PlanArtifact, RejectsOutOfRangeGatherColumn) {
  // the gather columns index the kernels' block buffers directly (FC
  // tokens, conv im2col pixels): one out of range is refused by
  // verify_plan, whether in memory or edited into a re-sealed artifact
  for (const bool conv : {false, true}) {
    const Graph g = conv ? scaled_resnet18(16) : small_ffn();
    const CompiledPlan plan = compile_plan(g, isa_options());
    const char* model = conv ? "resnet18" : "ffn";

    const CompiledPlan bad = with_out_of_range_column(plan);
    EXPECT_TRUE(verify_plan(bad).has("host.gather")) << model;
    EXPECT_THROW(artifact::load_plan_from_bytes(artifact::serialize_plan(bad),
                                                "bad-col"),
                 VerifyError)
        << model;

    // locate the first sparse step's stored columns through a mapped load
    TempDir dir;
    fs::create_directories(dir.path);
    const std::string path = dir.path + "/plan.plan";
    Corruptible a(plan);
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(a.bytes.data()),
               static_cast<std::streamsize>(a.bytes.size()));
    const auto file = MappedFile::open(path);
    ASSERT_NE(file, nullptr);
    size_t col_at = 0;
    for (const PlanStep& s : artifact::load_plan(file).steps) {
      if (!s.host.sparse()) continue;
      col_at = static_cast<size_t>(
          reinterpret_cast<const uint8_t*>(s.host.col.data()) - file->data());
      break;
    }
    ASSERT_GT(col_at, 0u) << model;
    a.bytes[col_at] = 0xff;
    a.bytes[col_at + 1] = 0xff;
    a.reseal(Corruptible::kWeightSection);
    ASSERT_TRUE(artifact::verify_artifact(a.bytes, "resealed").ok()) << model;
    try {
      artifact::load_plan_from_bytes(a.bytes, "resealed");
      FAIL() << model << ": out-of-range gather column was admitted";
    } catch (const VerifyError& e) {
      EXPECT_TRUE(e.report().has("host.gather")) << model;
    }
  }
}

/// `plan`'s artifact with one count edited to 0xFFFFFFFF and re-sealed:
/// the plan section's step count, or the first tiled step's tile_costs
/// count. Either would size an allocation far beyond the artifact (tens
/// of GB and more) if the loader trusted it.
std::vector<uint8_t> with_huge_count(const CompiledPlan& plan,
                                     bool step_count) {
  Corruptible a(plan);
  // the step count (u32) follows total_cycles; a step's tile_costs count
  // (u64) precedes its first tile's compute, dma_in and dma_out
  std::vector<uint8_t> pattern = le(plan.total_cycles, 8);
  size_t skip = 8;
  if (step_count) {
    const std::vector<uint8_t> n = le(plan.steps.size(), 4);
    pattern.insert(pattern.end(), n.begin(), n.end());
  } else {
    const auto tiled =
        std::find_if(plan.steps.begin(), plan.steps.end(),
                     [](const PlanStep& s) { return !s.tile_costs.empty(); });
    if (tiled == plan.steps.end()) {
      ADD_FAILURE() << "plan has no tiled step";
      return a.bytes;
    }
    const TileCost& first = tiled->tile_costs.front();
    pattern = le(tiled->tile_costs.size(), 8);
    for (const uint64_t v : {first.compute, first.dma_in, first.dma_out}) {
      const std::vector<uint8_t> b = le(v, 8);
      pattern.insert(pattern.end(), b.begin(), b.end());
    }
    skip = 0;
  }
  const size_t at = a.find(Corruptible::kPlanSection, pattern);
  if (at == 0) {
    ADD_FAILURE() << "count field not found";
    return a.bytes;
  }
  for (size_t i = 0; i < 4; ++i) a.bytes[at + skip + i] = 0xff;
  a.reseal(Corruptible::kPlanSection);
  EXPECT_TRUE(artifact::verify_artifact(a.bytes, "huge-count").ok());
  return a.bytes;
}

Graph ffn_1_4() { return build_ffn_block(16, 64, 128, 4, 7); }

TEST(PlanArtifact, RejectsEditedCountsBeforeAllocating) {
  const Graph g = ffn_1_4();
  const CompiledPlan plan = compile_plan(g, isa_options());
  for (const bool step_count : {true, false}) {
    EXPECT_THROW(artifact::load_plan_from_bytes(
                     with_huge_count(plan, step_count), "huge-count"),
                 Error)
        << (step_count ? "step count" : "tile_costs count");
  }
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

TEST(PlanRegistry, PublishLoadAndIndex) {
  const Graph g = small_ffn();
  const CompiledPlan plan = compile_plan(g, isa_options());
  const uint64_t fp = plan_fingerprint(g, plan.options);

  TempDir dir;
  PlanRegistry registry(dir.path);
  EXPECT_FALSE(registry.contains(fp));
  EXPECT_FALSE(registry.load(fp).has_value());

  const std::string path = registry.publish(plan);
  EXPECT_TRUE(registry.contains(fp));
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "index.tsv"));
  // idempotent re-publish
  EXPECT_EQ(registry.publish(plan), path);

  const auto listed = registry.list();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].plan_fingerprint, fp);
  EXPECT_GT(listed[0].weight_section_bytes, 0u);

  const auto loaded = registry.load(fp);
  ASSERT_TRUE(loaded.has_value());
  const Tensor8 input = random_input(g, 17);
  EXPECT_EQ(ExecutionEngine().run(*loaded, input).output,
            ExecutionEngine().run(plan, input).output);
}

TEST(PlanRegistry, ConcurrentLoadsAreIndependentAndBitExact) {
  const Graph g = small_ffn();
  const CompiledPlan plan = compile_plan(g, isa_options());
  const uint64_t fp = plan_fingerprint(g, plan.options);
  TempDir dir;
  PlanRegistry registry(dir.path);
  registry.publish(plan);

  const Tensor8 input = random_input(g, 23);
  const Tensor8 expect = ExecutionEngine().run(plan, input).output;

  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const auto loaded = registry.load(fp);
      if (!loaded.has_value()) return;
      if (ExecutionEngine().run(*loaded, input).output == expect) ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 4);
}

// ---------------------------------------------------------------------------
// registry startup hygiene
// ---------------------------------------------------------------------------

TEST(PlanRegistry, StartupSweepsStaleTempsAndSparesLiveOnes) {
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path base(dir.path);

  // a crashed publisher's leavings: a dead-pid temp (no such /proc entry)
  // and an ancient suffix-less temp
  const fs::path dead_pid = base / "0123456789abcdef.plan.tmp.999999999";
  const fs::path ancient = base / "fedcba9876543210.plan.tmp";
  // a live writer's temp (our own pid) must survive the sweep
  const fs::path live =
      base / ("aaaaaaaaaaaaaaaa.plan.tmp." + std::to_string(::getpid()));
  // and a real artifact name is never a sweep candidate
  const fs::path plan_file = base / "bbbbbbbbbbbbbbbb.plan";
  for (const fs::path& p : {dead_pid, ancient, live, plan_file}) {
    std::ofstream(p) << "x";
  }
  fs::last_write_time(ancient,
                      fs::file_time_type::clock::now() -
                          std::chrono::minutes(5));

  auto& swept = metrics::registry().counter("artifact.stale_tmp_swept");
  const uint64_t before = swept.value();
  PlanRegistry registry(dir.path);

  EXPECT_FALSE(fs::exists(dead_pid));
  EXPECT_FALSE(fs::exists(ancient));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_TRUE(fs::exists(plan_file));
  EXPECT_EQ(swept.value(), before + 2);
}

TEST(PlanRegistry, IndexSkipsTornLinesAndKeepsGoodOnes) {
  TempDir dir;
  fs::create_directories(dir.path);
  {
    std::ofstream idx(fs::path(dir.path) / "index.tsv");
    idx << "# fingerprint\tbytes\tweight_bytes\tversion\n";
    idx << "00deadbeef001122\t4096\t2048\t3\n";   // good
    idx << "00deadbee\n";                          // torn mid-write
    idx << "nothexnothexnoth\t1\t2\t3\n";         // 16 chars, not hex
    idx << "0000000000000001\t77\n";               // missing fields
    idx << "\n";                                   // blank: not an error
  }

  auto& skipped = metrics::registry().counter("artifact.index_skipped_lines");
  const uint64_t before = skipped.value();
  PlanRegistry registry(dir.path);  // tolerant parse runs at open, too
  const auto entries = registry.index_entries();

  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].fingerprint, 0x00deadbeef001122ULL);
  EXPECT_EQ(entries[0].total_bytes, 4096u);
  EXPECT_EQ(entries[0].weight_bytes, 2048u);
  EXPECT_EQ(entries[0].version, 3u);
  // three bad lines, counted by the constructor pass and the explicit one
  EXPECT_EQ(skipped.value(), before + 6);

  // a publish rewrites the index; the rebuilt file parses clean
  const Graph g = small_ffn();
  registry.publish(compile_plan(g, isa_options()));
  const uint64_t after_publish = skipped.value();
  const auto rebuilt = registry.index_entries();
  ASSERT_EQ(rebuilt.size(), 1u);
  EXPECT_EQ(skipped.value(), after_publish);
}

// ---------------------------------------------------------------------------
// PlanStore registry tier
// ---------------------------------------------------------------------------

TEST(PlanStoreRegistry, WarmRegistryColdStartIsZeroCompileZeroIss) {
  const Graph g = small_ffn();
  TempDir dir;

  // process 1: compile, serve, publish (write-through)
  {
    PlanStore store(isa_options(), shared_test_cache());
    store.attach_registry(dir.path);
    const int model = store.add_model(g);
    store.plan(model, 1);
    store.plan(model, 4);
    EXPECT_EQ(store.compiles(), 2);
    EXPECT_EQ(store.registry_loads(), 0);
  }

  // process 2 (simulated): fresh store, fresh latency cache — a warm
  // registry must serve every plan with zero compiles and zero ISS
  auto cold_cache = std::make_shared<TileLatencyCache>();
  PlanStore store(isa_options(), cold_cache);
  store.attach_registry(dir.path);
  const int model = store.add_model(g);
  const CompiledPlan& p1 = store.plan(model, 1);
  const CompiledPlan& p4 = store.plan(model, 4);
  EXPECT_EQ(store.compiles(), 0);
  EXPECT_EQ(store.registry_loads(), 2);
  EXPECT_EQ(cold_cache->misses(), 0u);  // no simulation ran

  // and the loaded plans serve bit-exactly
  const Tensor8 input = random_input(g, 31);
  Compiler reference(isa_options(), shared_test_cache());
  const CompiledPlan fresh = reference.compile(g);
  EXPECT_EQ(ExecutionEngine().run(p1, input).output,
            ExecutionEngine().run(fresh, input).output);
  EXPECT_EQ(p4.options.batch, 4);
}

TEST(PlanStoreRegistry, EditedCountIsARegistryFaultAndRecompiles) {
  // a bad artifact must be counted and recompiled, not take down setup
  const Graph g = ffn_1_4();
  const CompiledPlan plan = compile_plan(g, isa_options());
  TempDir dir;
  const std::string path = PlanRegistry(dir.path).publish(plan);
  const std::vector<uint8_t> bad = with_huge_count(plan, true);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bad.data()),
             static_cast<std::streamsize>(bad.size()));

  PlanStore store(isa_options(), shared_test_cache());
  store.attach_registry(dir.path);
  const CompiledPlan& served = store.plan(store.add_model(g), 1);
  EXPECT_EQ(store.registry_faults(), 1);
  EXPECT_EQ(store.registry_loads(), 0);
  EXPECT_EQ(store.compiles(), 1);
  const Tensor8 input = random_input(g, 41);
  EXPECT_EQ(ExecutionEngine().run(served, input).output,
            ExecutionEngine().run(plan, input).output);
}

TEST(PlanStoreRegistry, LoadedPlansDoNotReferenceTheStoreGraph) {
  const Graph g = small_ffn();
  TempDir dir;
  {
    PlanStore store(isa_options(), shared_test_cache());
    store.attach_registry(dir.path);
    store.plan(store.add_model(g), 1);
  }
  PlanStore store(isa_options(), shared_test_cache());
  store.attach_registry(dir.path);
  const CompiledPlan& loaded = store.plan(store.add_model(g), 1);
  ASSERT_NE(loaded.owned_graph, nullptr);
  EXPECT_EQ(loaded.graph, loaded.owned_graph.get());
  EXPECT_NE(loaded.graph, &store.graph(0));
}

}  // namespace
}  // namespace decimate
