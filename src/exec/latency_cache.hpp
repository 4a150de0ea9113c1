#pragma once
// Structured ISS latency cache: the compiler's memo of measured tile
// cycles.
//
// Each unique tile shape is simulated on the ISS exactly once; the result
// is keyed by a typed (domain, kernel kind, M, geometry, cluster config)
// tuple instead of the stringly key the original schedule executor used.
// The cache is shared: a Compiler threads one instance through every plan
// it builds, so compiling N graphs re-simulates each unique (kernel, tile
// geometry) only once. A compiled plan copies the cycles it needs into
// its steps and keeps no reference to the cache, and `.plan` artifacts
// carry no cache records: what a plan contains never depends on what
// else the process compiled.
//
// Thread safety: measure() may be called from concurrent compiles and the
// batch-pipeline workers. The map is mutex-guarded, and each key holds a
// shared_future so the first caller simulates while later callers for the
// same key wait on the in-flight result instead of re-simulating — the
// exactly-once guarantee holds under concurrency too. If the owning
// simulation throws, every waiter rethrows and the entry is erased so a
// later call can retry.

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "compiler/graph.hpp"
#include "kernels/abi.hpp"
#include "trace/metrics.hpp"

namespace decimate {

struct TileKey {
  enum class Domain : uint8_t { kConv, kFc, kVec };

  Domain domain = Domain::kConv;
  KernelKind kind = KernelKind::kConvDense1x2;  // gemm domains only
  int m = 0;                                    // sparsity block (0 = dense)
  OpType vec_op = OpType::kInput;               // vec domain only
  int cfg = 0;  // cluster-config salt (cores/lockstep/forwarding)
  std::array<int, 8> geom{};                    // domain-specific geometry

  friend bool operator<(const TileKey& a, const TileKey& b) {
    return std::tie(a.domain, a.kind, a.m, a.vec_op, a.cfg, a.geom) <
           std::tie(b.domain, b.kind, b.m, b.vec_op, b.cfg, b.geom);
  }
  friend bool operator==(const TileKey& a, const TileKey& b) {
    return std::tie(a.domain, a.kind, a.m, a.vec_op, a.cfg, a.geom) ==
           std::tie(b.domain, b.kind, b.m, b.vec_op, b.cfg, b.geom);
  }
};

inline TileKey conv_tile_key(KernelKind kind, int m, const ConvGeom& g,
                             int cfg = 0) {
  TileKey k;
  k.domain = TileKey::Domain::kConv;
  k.kind = kind;
  k.m = m;
  k.cfg = cfg;
  k.geom = {g.ix, g.iy, g.c, g.k, g.fx, g.fy, g.stride, g.pad};
  return k;
}

inline TileKey fc_tile_key(KernelKind kind, int m, const FcGeom& g,
                           int cfg = 0) {
  TileKey k;
  k.domain = TileKey::Domain::kFc;
  k.kind = kind;
  k.m = m;
  k.cfg = cfg;
  k.geom = {g.tokens, g.c, g.k};
  return k;
}

inline TileKey vec_tile_key(OpType op, int rows, int row_bytes, int extra = 0,
                            int cfg = 0) {
  TileKey k;
  k.domain = TileKey::Domain::kVec;
  k.vec_op = op;
  k.cfg = cfg;
  k.geom = {rows, row_bytes, extra};
  return k;
}

class TileLatencyCache {
 public:
  /// Return the cached cycle count for `key`, running `fn` (an ISS
  /// simulation) only on the first request. Safe to call concurrently;
  /// racing callers for the same key block on one shared simulation.
  uint64_t measure(const TileKey& key, const std::function<uint64_t()>& fn) {
    std::promise<uint64_t> prom;
    std::shared_future<uint64_t> fut;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++hits_;
        metrics::registry().counter("exec.tile_cache.hits").inc();
        fut = it->second;
      } else {
        fut = prom.get_future().share();
        cache_.emplace(key, fut);
        ++misses_;
        metrics::registry().counter("exec.tile_cache.misses").inc();
        owner = true;
      }
    }
    if (owner) {
      try {
        prom.set_value(fn());
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          cache_.erase(key);
        }
        prom.set_exception(std::current_exception());
      }
    }
    return fut.get();
  }

  /// Persist every measured entry to `path` (versioned binary header +
  /// fixed-size little-endian key/cycles records). In-flight entries
  /// (simulations still running on another thread) are skipped. Returns
  /// the number of entries written; throws on I/O failure.
  size_t save(const std::string& path) const;

  /// Merge the entries of a file written by save() into this cache;
  /// existing keys win (a measured value is never overwritten). Returns
  /// the number of entries inserted; a missing file is not an error
  /// (returns 0), a malformed header or truncated record throws. Loaded
  /// entries count as neither hits nor misses — a later measure() of a
  /// loaded key is a hit with no simulation, which is the point: a warm
  /// file makes plan compiles ISS-free across process restarts.
  size_t load(const std::string& path);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  mutable std::mutex mu_;
  std::map<TileKey, std::shared_future<uint64_t>> cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace decimate
