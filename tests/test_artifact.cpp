// Plan-artifact registry tests: serde primitives, serialize -> load
// round-trips that must be bit-exact across every execution path
// (ExecutionEngine::run, pipelined run_batch), rebuild the compiler's
// host kernel bindings field for field, and reproduce the shard
// schedule, artifact bytes that depend only on graph and options, the
// admission gate (truncation, bit flips, version skew, forged
// fingerprints, out-of-range enum values, edited counts, and seeded
// sweeps of re-sealed single-byte edits, 32-bit boundary words and
// shrunk section sizes over every section), concurrent
// loads, graph ownership of loaded plans, and the PlanStore registry
// tier's zero-compile / zero-ISS cold start, its fallback on a bad or
// misfiled artifact, and the absence of any state a rejected artifact
// could leave behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <unistd.h>

#include "artifact/plan_io.hpp"
#include "artifact/registry.hpp"
#include "common/serde.hpp"
#include "compiler/fingerprint.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "nn/prune.hpp"
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

template <typename T>
bool same_array(const SharedBuf<T>& a, const SharedBuf<T>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// A loaded plan's host kernel bindings, which the loader derives from
/// the packed payload, equal the compiler's field for field.
void expect_same_host_bindings(const CompiledPlan& loaded,
                               const CompiledPlan& fresh) {
  ASSERT_EQ(loaded.steps.size(), fresh.steps.size());
  for (size_t i = 0; i < fresh.steps.size(); ++i) {
    const HostKernelDispatch& got = loaded.steps[i].host;
    const HostKernelDispatch& want = fresh.steps[i].host;
    EXPECT_EQ(got.impl, want.impl) << "step " << i;
    EXPECT_EQ(got.m, want.m) << "step " << i;
    EXPECT_EQ(got.instance, want.instance) << "step " << i;
    EXPECT_TRUE(same_array(got.row_start, want.row_start)) << "step " << i;
    EXPECT_TRUE(same_array(got.col, want.col)) << "step " << i;
    EXPECT_TRUE(same_array(got.val, want.val)) << "step " << i;
  }
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
    expect_same_host_bindings(loaded, plan);

    const Tensor8 input = random_input(g, 100 + static_cast<uint64_t>(m));
    ExecutionEngine engine;
    const NetworkRun fresh = engine.run(plan, input);
    const NetworkRun reloaded = engine.run(loaded, input);
    EXPECT_EQ(reloaded.output, fresh.output) << "m=" << m;
    EXPECT_EQ(reloaded.total_cycles, fresh.total_cycles);
  }
}

TEST(PlanArtifact, FfnBatchRunRoundTripsBitExact) {
  // xDecimate options pack the FC weights interleaved, the default
  // options in the SW layout
  const Graph g = small_ffn();
  for (const bool isa : {true, false}) {
    CompileOptions opt = isa ? isa_options() : CompileOptions{};
    opt.batch = 4;
    const CompiledPlan plan = compile_plan(g, opt);
    const CompiledPlan loaded = round_trip(plan);
    expect_same_host_bindings(loaded, plan);

    std::vector<Tensor8> inputs;
    for (int i = 0; i < 4; ++i) {
      inputs.push_back(random_input(g, 200 + static_cast<uint64_t>(i)));
    }
    ExecutionEngine engine;
    const BatchRun fresh = engine.run_batch(plan, inputs);
    const BatchRun reloaded = engine.run_batch(loaded, inputs);
    EXPECT_EQ(reloaded.batch_cycles, fresh.batch_cycles) << "isa=" << isa;
    ASSERT_EQ(reloaded.runs.size(), fresh.runs.size());
    for (size_t i = 0; i < fresh.runs.size(); ++i) {
      EXPECT_EQ(reloaded.runs[i].output, fresh.runs[i].output)
          << "isa=" << isa;
    }
  }
}

TEST(PlanArtifact, ShardPlanRoundTrips) {
  const Graph g = small_ffn();
  CompileOptions opt = isa_options();
  opt.num_clusters = 2;
  const CompiledPlan plan = compile_plan(g, opt);
  const CompiledPlan loaded = round_trip(plan);

  const ShardPlan fresh = shard_plan(plan);
  const ShardPlan reloaded = shard_plan(loaded);
  EXPECT_EQ(reloaded.num_clusters, 2);
  EXPECT_EQ(reloaded.critical_path_cycles, fresh.critical_path_cycles);
  EXPECT_EQ(reloaded.reduction_cycles, fresh.reduction_cycles);
  EXPECT_EQ(reloaded.cluster_busy_cycles, fresh.cluster_busy_cycles);

  const Tensor8 input = random_input(g, 7);
  ExecutionEngine engine;
  const NetworkRun ran = engine.run(loaded, input);
  EXPECT_EQ(ran.output, engine.run(plan, input).output);
  EXPECT_EQ(ran.total_cycles, plan.total_cycles);
}

TEST(PlanArtifact, BytesDependOnlyOnGraphAndOptions) {
  // the same FFN 1:8 plan from a fresh compiler and from one that
  // compiled ResNet18 first: what else a process compiled must not
  // reach a plan's bytes
  const Graph ffn = small_ffn();
  const Graph resnet = scaled_resnet18(16);
  Compiler fresh(isa_options());
  Compiler seasoned(isa_options(), shared_test_cache());
  seasoned.compile(resnet);
  EXPECT_EQ(artifact::serialize_plan(fresh.compile(ffn)),
            artifact::serialize_plan(seasoned.compile(ffn)));
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
  static constexpr size_t kGraphSection = 0, kPlanSection = 1,
                          kWeightSection = 2, kSections = 3;

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
  void put_u64(size_t at, uint64_t v) {
    for (size_t i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  /// File offset of section `id`, from its table entry.
  size_t offset(size_t id) const {
    return static_cast<size_t>(get_u64(entry(id) + 1));
  }
  std::span<const uint8_t> section(size_t id) const {
    return std::span<const uint8_t>(bytes).subspan(
        offset(id), static_cast<size_t>(get_u64(entry(id) + 9)));
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
    reseal_header();
  }
  void reseal_header() {
    put_u32(artifact::kHeaderBytes - 4,
            serde::crc32(std::span<const uint8_t>(bytes).first(
                artifact::kHeaderBytes - 4)));
  }

  /// Forge the header's plan fingerprint (offset 8, after magic and
  /// version) and re-seal the header CRC.
  void forge_plan_fingerprint() {
    bytes[8] ^= 0xff;
    reseal_header();
  }

  void write_to(const std::string& path) const {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
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
  // re-sealed, so only the artifact.fingerprint re-derivation can catch
  // the lie
  a.forge_plan_fingerprint();
  EXPECT_TRUE(artifact::verify_artifact(a.bytes, "forged").ok());
  try {
    artifact::load_plan_from_bytes(a.bytes, "forged");
    FAIL() << "forged fingerprint was admitted";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().has("artifact.fingerprint"));
  }
}

/// `plan`'s artifact with one count edited to 0xFFFFFFFF and re-sealed:
/// the plan section's step count, or the first tiled step's tile_costs
/// count. Either would size an allocation far beyond the artifact (tens
/// of GB and more) if the loader trusted it.
Corruptible with_huge_count(const CompiledPlan& plan, bool step_count) {
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
      return a;
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
    return a;
  }
  for (size_t i = 0; i < 4; ++i) a.bytes[at + skip + i] = 0xff;
  a.reseal(Corruptible::kPlanSection);
  EXPECT_TRUE(artifact::verify_artifact(a.bytes, "huge-count").ok());
  return a;
}

Graph ffn_1_4() { return build_ffn_block(16, 64, 128, 4, 7); }

TEST(PlanArtifact, RejectsEditedCountsBeforeAllocating) {
  const Graph g = ffn_1_4();
  const CompiledPlan plan = compile_plan(g, isa_options());
  for (const bool step_count : {true, false}) {
    EXPECT_THROW(artifact::load_plan_from_bytes(
                     with_huge_count(plan, step_count).bytes, "huge-count"),
                 Error)
        << (step_count ? "step count" : "tile_costs count");
  }
}

/// A copy of `plan` with `edit` applied to the first step `pick` selects
/// (enum fields only: plan copies share their payload arrays).
CompiledPlan with_step_edit(const CompiledPlan& plan,
                            const std::function<bool(const PlanStep&)>& pick,
                            const std::function<void(PlanStep&)>& edit) {
  CompiledPlan out = plan;
  const auto it = std::find_if(out.steps.begin(), out.steps.end(), pick);
  if (it == out.steps.end()) {
    ADD_FAILURE() << "no step to edit";
  } else {
    edit(*it);
  }
  return out;
}

TEST(PlanArtifact, RejectsOutOfRangeEnumValues) {
  // each value is written into the artifact as it stands in memory; one
  // past its enum's last enumerator must be refused by the loader, naming
  // the field (shard_axis 3 was the deleted kFcC reduction split)
  const Graph g = ffn_1_4();
  CompileOptions opt = isa_options();
  opt.num_clusters = 2;
  const CompiledPlan plan = compile_plan(g, opt);
  const auto tiled = [](const PlanStep& s) {
    return s.shard_axis == ShardAxis::kGemmTiles;
  };
  const auto sparse = [](const PlanStep& s) { return s.has_packed; };
  struct Case {
    const char* field;
    CompiledPlan plan;
  };
  const Case cases[] = {
      {"shard_axis", with_step_edit(plan, tiled, [](PlanStep& s) {
         s.shard_axis = static_cast<ShardAxis>(3);
       })},
      {"shard_axis", with_step_edit(plan, tiled, [](PlanStep& s) {
         s.shard_axis = static_cast<ShardAxis>(200);
       })},
      {"step weight_region", with_step_edit(plan, sparse, [](PlanStep& s) {
         s.weight_region = static_cast<MemRegion>(9);
       })},
      {"choice.kind", with_step_edit(plan, sparse, [](PlanStep& s) {
         s.choice.kind = static_cast<KernelKind>(200);
       })},
  };
  for (const Case& c : cases) {
    try {
      artifact::load_plan_from_bytes(artifact::serialize_plan(c.plan),
                                     "bad-enum");
      ADD_FAILURE() << "an out-of-range " << c.field << " was admitted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }

  // a registry-backed store counts the refusal as a fault and recompiles
  const CompiledPlan single = compile_plan(g, isa_options());
  TempDir dir;
  Corruptible bad(with_step_edit(single, sparse, [](PlanStep& s) {
    s.weight_region = static_cast<MemRegion>(9);
  }));
  bad.write_to(PlanRegistry(dir.path).publish(single));
  PlanStore store(isa_options(), shared_test_cache());
  store.attach_registry(dir.path);
  const CompiledPlan& served = store.plan(store.add_model(g), 1);
  EXPECT_EQ(store.registry_faults(), 1);
  EXPECT_EQ(store.compiles(), 1);
  const Tensor8 input = random_input(g, 53);
  EXPECT_EQ(ExecutionEngine().run(served, input).output,
            ExecutionEngine().run(single, input).output);
}

/// One sparse conv layer, 8x8x16 -> 32, 3x3, 1:8: the conv half of the
/// edit sweep, small enough to load hundreds of times.
Graph single_sparse_conv() {
  const ConvGeom g{.ix = 8, .iy = 8, .c = 16, .k = 32, .fx = 3, .fy = 3,
                   .stride = 1, .pad = 1};
  Rng rng(7);
  Graph graph({g.iy, g.ix, g.c});
  Node n;
  n.op = OpType::kConv2d;
  n.name = "conv";
  n.inputs = {0};
  n.conv = g;
  n.weights = Tensor8::random({g.k, g.fsz()}, rng);
  nm_prune(n.weights.flat(), g.k, g.fsz(), 1, 8);
  Tensor32 bias({g.k});
  for (int i = 0; i < g.k; ++i) bias[i] = rng.uniform_int(-500, 500);
  n.bias = std::move(bias);
  n.rq = calibrate_requant(g.fsz());
  n.out_shape = {g.oy(), g.ox(), g.k};
  graph.add(std::move(n));
  return graph;
}

/// Load a re-sealed, edited artifact and run it: "" when the loader
/// refuses it with a typed error or it runs bit-exact with `expect`,
/// otherwise what went wrong.
std::string edit_verdict(const std::vector<uint8_t>& bytes,
                         const Tensor8& input, const Tensor8& expect) {
  CompiledPlan loaded;
  try {
    loaded = artifact::load_plan_from_bytes(bytes, "edited");
  } catch (const Error&) {
    return "";  // refused (VerifyError is an Error)
  } catch (const std::exception& e) {
    return std::string("untyped load error: ") + e.what();
  }
  try {
    if (ExecutionEngine().run(loaded, input).output == expect) return "";
    return "admitted, and served a wrong output";
  } catch (const std::exception& e) {
    return std::string("admitted, then failed to run: ") + e.what();
  }
}

/// Edits a copy of a clean artifact in section `id` (the `i`-th edit of
/// its kind) and re-seals it; returns what it did, for a failure message.
using SectionEdit = std::function<std::string(Corruptible&, size_t id, int i)>;

/// Applies `edits` edits per section to both sweep plans, the FFN 1:4
/// plan and a one-layer 1:8 sparse conv. Every edit is re-sealed (section
/// and header CRC) so only the loader's own checks can catch it, and must
/// be refused or run bit-exact with the unedited plan. A failure prints
/// what reproduces it, to be minimized into a named regression.
void sweep_section_edits(int edits, const SectionEdit& edit) {
  const char* const kSectionName[] = {"graph", "plan", "weights"};
  const Graph ffn = ffn_1_4();
  const Graph conv = single_sparse_conv();
  for (const Graph* g : {&ffn, &conv}) {
    const char* model = g == &ffn ? "ffn 1:4" : "conv 1:8";
    const CompiledPlan plan = compile_plan(*g, isa_options());
    const Tensor8 input = random_input(*g, 61);
    const Tensor8 expect = ExecutionEngine().run(plan, input).output;
    const Corruptible clean(plan);
    for (size_t id = 0; id < Corruptible::kSections; ++id) {
      ASSERT_GT(clean.section(id).size(), 64u);
      int refused_or_exact = 0;
      for (int i = 0; i < edits; ++i) {
        Corruptible a = clean;
        const std::string what = edit(a, id, i);
        const std::string verdict = edit_verdict(a.bytes, input, expect);
        if (verdict.empty()) {
          ++refused_or_exact;
          continue;
        }
        ADD_FAILURE() << model << ", " << kSectionName[id] << " section, "
                      << what << ": " << verdict;
      }
      EXPECT_EQ(refused_or_exact, edits)
          << model << ", " << kSectionName[id] << " section";
    }
  }
}

TEST(PlanArtifact, SeededSectionEditsAreRefusedOrExact) {
  // 300 seeded single-byte edits per section
  sweep_section_edits(300, [](Corruptible& a, size_t id, int i) {
    const uint64_t seed = 1000 * id + static_cast<uint64_t>(i);
    Rng rng(seed);
    const size_t at = rng.next_u32() % a.section(id).size();
    uint8_t& byte = a.bytes[a.offset(id) + at];
    const int old_byte = byte;
    byte ^= static_cast<uint8_t>(rng.uniform_int(1, 255));
    const int new_byte = byte;
    a.reseal(id);
    return "seed " + std::to_string(seed) + ", offset " + std::to_string(at) +
           ": byte " + std::to_string(old_byte) + " -> " +
           std::to_string(new_byte);
  });
}

TEST(PlanArtifact, SeededBoundaryWordsAreRefusedOrExact) {
  // each 32-bit boundary word written (little-endian) at the same 100
  // seeded offsets per section: counts, sizes, dims and offsets at the
  // edges of their ranges
  constexpr uint32_t kWords[] = {0,          1,          0x7fffffff,
                                 0x80000000, 0xffffffff, 0xffff,
                                 0x10000};
  constexpr int kNumWords = static_cast<int>(std::size(kWords));
  constexpr int kOffsets = 100;
  const auto write_word = [&](Corruptible& a, size_t id, int i) {
    const uint64_t seed =
        100000 + 1000 * id + static_cast<uint64_t>(i / kNumWords);
    const uint32_t word = kWords[i % kNumWords];
    Rng rng(seed);
    const size_t at = rng.next_u32() % (a.section(id).size() - 3);
    a.put_u32(a.offset(id) + at, word);
    a.reseal(id);
    return "seed " + std::to_string(seed) + ", offset " + std::to_string(at) +
           ": word " + std::to_string(word);
  };
  sweep_section_edits(kOffsets * kNumWords, write_word);
}

TEST(PlanArtifact, SectionTruncationsAreRefusedOrExact) {
  // each section's size field shrunk by 1-64 bytes and the section CRC
  // re-sealed over what is left: the section ends early while the file
  // and every other section stay as they were
  sweep_section_edits(64, [](Corruptible& a, size_t id, int i) {
    const size_t cut = static_cast<size_t>(i) + 1;
    a.put_u64(Corruptible::entry(id) + 9, a.section(id).size() - cut);
    a.reseal(id);
    return "size shrunk by " + std::to_string(cut) + " bytes";
  });
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
  with_huge_count(plan, true).write_to(PlanRegistry(dir.path).publish(plan));

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

TEST(PlanStoreRegistry, ArtifactFiledUnderAnotherIdentityIsRefused) {
  // the dense plan's artifact copied over the 1:8 plan's file passes
  // every check on its own bytes; only the identity it is filed under
  // can tell that it is not the plan requested
  const Graph dense = build_ffn_block(16, 64, 128, 0, 7);
  const Graph sparse = build_ffn_block(16, 64, 128, 8, 7);
  TempDir dir;
  {
    PlanStore store(isa_options(), shared_test_cache());
    store.attach_registry(dir.path);
    store.plan(store.add_model(dense), 1);
    store.plan(store.add_model(sparse), 1);
  }
  PlanRegistry registry(dir.path);
  const uint64_t sparse_fp = plan_fingerprint(sparse, isa_options());
  fs::copy_file(registry.path_for(plan_fingerprint(dense, isa_options())),
                registry.path_for(sparse_fp),
                fs::copy_options::overwrite_existing);

  auto& rejects = metrics::registry().counter("artifact.verify_rejects");
  const uint64_t before = rejects.value();
  try {
    registry.load(sparse_fp);
    FAIL() << "a misfiled artifact was admitted";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().has("artifact.fingerprint"))
        << e.report().to_string();
  }
  EXPECT_EQ(rejects.value(), before + 1);

  PlanStore store(isa_options(), shared_test_cache());
  store.attach_registry(dir.path);
  const CompiledPlan& served = store.plan(store.add_model(sparse), 1);
  EXPECT_EQ(store.registry_faults(), 1);
  EXPECT_EQ(store.registry_loads(), 0);
  EXPECT_EQ(store.compiles(), 1);
  const Tensor8 input = random_input(sparse, 43);
  const CompiledPlan fresh = compile_plan(sparse, isa_options());
  EXPECT_EQ(ExecutionEngine().run(served, input).output,
            ExecutionEngine().run(fresh, input).output);
}

TEST(PlanStoreRegistry, RejectedArtifactLeavesNoStateBehind) {
  // the FFN 1:4 plan, published by a compiler that compiled another
  // graph first, with a forged (re-sealed) header identity: refusing it
  // must leave the store's cache exactly as a clean compile finds it
  const Graph other = small_ffn();
  const Graph g = ffn_1_4();
  Compiler seasoned(isa_options());
  seasoned.compile(other);
  const CompiledPlan plan = seasoned.compile(g);
  TempDir dir;
  Corruptible forged(plan);
  forged.forge_plan_fingerprint();
  forged.write_to(PlanRegistry(dir.path).publish(plan));

  auto cache = std::make_shared<TileLatencyCache>();
  PlanStore store(isa_options(), cache);
  store.attach_registry(dir.path);
  const CompiledPlan& served = store.plan(store.add_model(g), 1);
  EXPECT_EQ(store.registry_faults(), 1);
  EXPECT_EQ(store.compiles(), 1);

  Compiler clean(isa_options());
  const CompiledPlan reference = clean.compile(g);
  EXPECT_EQ(cache->size(), clean.latencies().size());
  EXPECT_EQ(cache->misses(), clean.latencies().misses());
  EXPECT_EQ(served.total_cycles, reference.total_cycles);
}

TEST(PlanStoreRegistry, LoadedPlansReserializeToTheirArtifactBytes) {
  // the registry is content-addressed: once a store has loaded every
  // plan of two models, each must still re-serialize to the exact bytes
  // of the file it was loaded from
  const std::vector<Graph> graphs = {scaled_resnet18(16), small_ffn()};
  TempDir dir;
  {
    PlanStore store(isa_options(), shared_test_cache());
    store.attach_registry(dir.path);
    for (const Graph& g : graphs) {
      const int model = store.add_model(g);
      store.plan(model, 1);
      store.plan(model, 1, 2);
    }
  }
  PlanStore store(isa_options());
  const auto registry = store.attach_registry(dir.path);
  std::vector<std::pair<const Graph*, const CompiledPlan*>> loaded;
  for (const Graph& g : graphs) {
    const int model = store.add_model(g);
    for (const int clusters : {1, 2}) {
      loaded.emplace_back(&g, &store.plan(model, 1, clusters));
    }
  }
  EXPECT_EQ(store.registry_loads(), 4);
  EXPECT_EQ(store.compiles(), 0);
  for (const auto& [g, plan] : loaded) {
    std::vector<uint8_t> on_disk;
    ASSERT_TRUE(serde::read_file(
        registry->path_for(plan_fingerprint(*g, plan->options)), on_disk));
    EXPECT_TRUE(artifact::serialize_plan(*plan) == on_disk)
        << plan->options.num_clusters << "-cluster plan of a "
        << g->size() << "-node graph";
  }
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
