#include "artifact/registry.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/serde.hpp"
#include "compiler/fingerprint.hpp"
#include "serve/fault.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace decimate {

namespace fs = std::filesystem;

namespace {

std::string hex16(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A live writer's temp (serde::write_file_atomic names it
// "<target>.tmp.<pid>" where pids are available, "<target>.tmp"
// otherwise) must survive the sweep; only a crashed publisher's leavings
// go. With a pid suffix that's decidable (is the pid alive?); without
// one, fall back to age — no atomic write stays in flight for a minute.
bool tmp_is_stale(const fs::path& p) {
  const std::string name = p.filename().string();
  const size_t tag = name.rfind(".tmp.");
  if (tag != std::string::npos) {
    const std::string pid_s = name.substr(tag + 5);
    errno = 0;
    char* end = nullptr;
    const unsigned long pid = std::strtoul(pid_s.c_str(), &end, 10);
    if (errno == 0 && end != nullptr && *end == '\0' && !pid_s.empty()) {
#if defined(__unix__) || defined(__APPLE__)
      if (pid == static_cast<unsigned long>(::getpid())) return false;
      return !fs::exists(fs::path("/proc") / pid_s);
#endif
    }
    // unparsable pid (or no /proc): fall through to the age check
  }
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return false;  // raced with the writer's rename — leave it
  const auto age = fs::file_time_type::clock::now() - mtime;
  return age > std::chrono::seconds(60);
}

}  // namespace

PlanRegistry::PlanRegistry(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  // Startup hygiene, half 1: sweep temp files a crashed publish left
  // behind. Readers never see temps (publish is write-temp + rename), so
  // the only cost of a leak is disk — but a registry dir that grows
  // garbage forever is how "atomic publish" quietly stops being trusted.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool is_tmp = name.size() >= 4 &&
                        (name.rfind(".tmp") == name.size() - 4 ||
                         name.rfind(".tmp.") != std::string::npos);
    if (!is_tmp || !tmp_is_stale(entry.path())) continue;
    std::error_code ec;
    fs::remove(entry.path(), ec);
    if (!ec) {
      metrics::registry().counter("artifact.stale_tmp_swept").inc();
      trace::instant(trace::Cat::kArtifact, "registry.sweep_stale_tmp");
    }
  }
  // Startup hygiene, half 2: a torn index.tsv must not fail the open;
  // parsing it here exercises the tolerant path (and its skip counter)
  // even for callers that never read the index themselves.
  index_entries();
}

std::string PlanRegistry::path_for(uint64_t fingerprint) const {
  return (fs::path(dir_) / (hex16(fingerprint) + ".plan")).string();
}

bool PlanRegistry::contains(uint64_t fingerprint) const {
  return fs::exists(path_for(fingerprint));
}

std::string PlanRegistry::publish(const CompiledPlan& plan) {
  DECIMATE_CHECK(plan.graph != nullptr, "cannot publish a plan without a graph");
  trace::TraceScope span(trace::Cat::kArtifact, "registry.publish");
  const uint64_t fp = plan_fingerprint(*plan.graph, plan.options);
  const std::string path = path_for(fp);
  const std::vector<uint8_t> bytes = artifact::serialize_plan(plan);
  span.arg("bytes", static_cast<int64_t>(bytes.size()));
  serde::write_file_atomic(path, bytes);
  metrics::registry().counter("artifact.publishes").inc();
  rewrite_index();
  return path;
}

std::optional<CompiledPlan> PlanRegistry::load(uint64_t fingerprint) {
  const uint64_t t0 = now_ns();
  trace::TraceScope span(trace::Cat::kArtifact, "registry.load");
  const std::string path = path_for(fingerprint);
  std::shared_ptr<MappedFile> file;
  {
    trace::TraceScope map_span(trace::Cat::kArtifact, "registry.mmap");
    file = MappedFile::open(path);
  }
  if (file == nullptr) {
    metrics::registry().counter("artifact.misses").inc();
    return std::nullopt;
  }
  span.arg("bytes", static_cast<int64_t>(file->size()));
  // Chaos hook: kException models an I/O fault mid-load; kBitFlip
  // corrupts a heap COPY of the mapped bytes (the disk artifact and the
  // shared mapping stay intact) and pushes the copy through the same
  // admission gate a real corruption would face — the gate, not the
  // injector, is what must catch it.
  fault::Fired fired{};
  if (fault::FaultInjector* inj = fault::FaultInjector::installed()) {
    fired = inj->fire(fault::Site::kRegistryLoad);
  }
  try {
    // load_plan runs the whole admission gate (artifact.* structural
    // checks, the identity check against the requested fingerprint,
    // fingerprint re-derivation, the static plan verifier); the verify
    // span wraps it so trace consumers see admission cost separately
    // from the mmap
    trace::TraceScope verify_span(trace::Cat::kArtifact, "registry.verify");
    CompiledPlan plan = [&] {
      if (fired.kind == fault::Kind::kBitFlip) {
        std::vector<uint8_t> corrupt(file->bytes().begin(),
                                     file->bytes().end());
        fault::FaultInjector::installed()->flip_bit(corrupt, fired.seq);
        return artifact::load_plan_from_bytes(corrupt, path, fingerprint);
      }
      return artifact::load_plan(std::move(file), fingerprint);
    }();
    metrics::registry().counter("artifact.hits").inc();
    metrics::registry().histogram("artifact.load_ns").observe(now_ns() - t0);
    return plan;
  } catch (const VerifyError&) {
    metrics::registry().counter("artifact.verify_rejects").inc();
    throw;
  }
}

std::vector<artifact::ArtifactInfo> PlanRegistry::list() const {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".plan") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<artifact::ArtifactInfo> out;
  out.reserve(paths.size());
  for (const auto& p : paths) {
    // mmap rather than read: only the header page is faulted in
    const auto file = MappedFile::open(p);
    if (file == nullptr) continue;  // raced with a delete
    out.push_back(artifact::peek_info(file->bytes(), p));
  }
  return out;
}

std::vector<IndexEntry> PlanRegistry::index_entries() const {
  std::vector<IndexEntry> out;
  std::ifstream in(fs::path(dir_) / "index.tsv");
  if (!in.good()) return out;  // no index yet: an empty registry is fine
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // four tab-separated fields: hex fingerprint, bytes, weight bytes,
    // version. Anything torn/truncated/garbled skips with a metric — the
    // index is advisory, the .plan files are authoritative.
    IndexEntry e;
    std::istringstream fields(line);
    std::string fp_hex;
    bool ok = static_cast<bool>(fields >> fp_hex >> e.total_bytes >>
                                e.weight_bytes >> e.version);
    if (ok && fp_hex.size() == 16) {
      errno = 0;
      char* end = nullptr;
      e.fingerprint = std::strtoull(fp_hex.c_str(), &end, 16);
      ok = errno == 0 && end != nullptr && *end == '\0';
    } else {
      ok = false;
    }
    if (!ok) {
      metrics::registry().counter("artifact.index_skipped_lines").inc();
      continue;
    }
    out.push_back(e);
  }
  return out;
}

void PlanRegistry::rewrite_index() const {
  std::ostringstream idx;
  idx << "# fingerprint\tbytes\tweight_bytes\tversion\n";
  for (const auto& info : list()) {
    idx << hex16(info.plan_fingerprint) << '\t' << info.total_bytes << '\t'
        << info.weight_section_bytes << '\t' << info.version << '\n';
  }
  const std::string s = idx.str();
  serde::write_file_atomic(
      (fs::path(dir_) / "index.tsv").string(),
      {reinterpret_cast<const uint8_t*>(s.data()), s.size()});
}

}  // namespace decimate
