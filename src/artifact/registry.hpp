#pragma once
// PlanRegistry: a directory of serialized CompiledPlans, keyed by plan
// fingerprint — the deployment artifact store.
//
// Layout on disk:
//   <dir>/<%016x fingerprint>.plan   one artifact per plan identity
//   <dir>/index.tsv                  human-greppable index (fingerprint,
//                                    bytes, weight bytes), rebuilt on
//                                    every publish
//
// An artifact's bytes are a function of its plan identity, so the
// registry is content-addressed: re-publishing a fingerprint rewrites
// identical bytes. Publishing is atomic (write temp + rename), so
// concurrent publishers and a crashed process never leave a torn
// artifact: readers see either nothing or complete bytes. Loading mmaps
// the artifact read-only and rehydrates through the admission gate
// (artifact.* structural checks, the identity check — the header must
// name the fingerprint the file is filed under — and the static plan
// verifier); every SharedBuf payload in the returned plan aliases the
// mapping, so N processes serving the same registry share one physical
// copy of each plan's weight section. Loading touches no shared state:
// a rejected artifact leaves nothing behind.
//
// Observability: counters artifact.{hits,misses,publishes,
// verify_rejects}, histogram artifact.load_ns, spans registry.load /
// registry.mmap / registry.verify / registry.publish (Cat::kArtifact).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "artifact/plan_io.hpp"
#include "exec/plan.hpp"

namespace decimate {

/// One parsed index.tsv line (see index_entries()).
struct IndexEntry {
  uint64_t fingerprint = 0;
  uint64_t total_bytes = 0;
  uint64_t weight_bytes = 0;
  uint64_t version = 0;
};

class PlanRegistry {
 public:
  /// Open (creating the directory if needed).
  ///
  /// Startup hygiene: sweeps stale `*.tmp` files a crashed publisher left
  /// behind (a temp whose writer pid is dead, or an un-suffixed temp old
  /// enough that no writer can still hold it) — counted in
  /// artifact.stale_tmp_swept — and parses index.tsv tolerantly, so a
  /// torn index never fails the open (see index_entries()).
  explicit PlanRegistry(std::string dir);

  /// Serialize and atomically publish a plan under its fingerprint.
  /// Re-publishing an identical fingerprint overwrites (the bytes are a
  /// pure function of the fingerprint, so this is idempotent). Returns
  /// the artifact path.
  std::string publish(const CompiledPlan& plan);

  /// Load the plan with this fingerprint through the admission gate.
  /// Returns nullopt when no such artifact exists; throws VerifyError on
  /// a corrupt/forged artifact or one whose header names another plan
  /// identity (artifact.fingerprint), decimate::Error on I/O failure.
  std::optional<CompiledPlan> load(uint64_t fingerprint);

  /// Whether an artifact for this fingerprint exists on disk.
  bool contains(uint64_t fingerprint) const;

  /// Header info of every artifact in the directory (sorted by path).
  std::vector<artifact::ArtifactInfo> list() const;

  /// Parse index.tsv, skipping comments and corrupt/truncated lines
  /// (each skipped data line increments artifact.index_skipped_lines
  /// rather than throwing — the index is a greppable convenience, the
  /// artifacts themselves are the source of truth). Empty when no index
  /// exists yet.
  std::vector<IndexEntry> index_entries() const;

  /// The artifact path a fingerprint maps to (whether or not it exists).
  std::string path_for(uint64_t fingerprint) const;

  const std::string& dir() const { return dir_; }

 private:
  void rewrite_index() const;

  std::string dir_;
};

}  // namespace decimate
