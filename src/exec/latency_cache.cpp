#include "exec/latency_cache.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"

namespace decimate {

namespace {

// File layout: magic, version, CRC of the record block, then the
// count-prefixed records. Each record encodes the full TileKey tuple plus
// the measured cycles in explicit little-endian fields
// (common/serde.hpp); bumping kVersion invalidates stale files
// wholesale. v1 wrote host-endian packed structs; v2 is the portable
// serde encoding.
constexpr char kMagic[4] = {'D', 'T', 'L', 'C'};
constexpr uint32_t kVersion = 2;

void write_record(serde::Writer& w, const TileKey& key, uint64_t cycles) {
  w.u8(static_cast<uint8_t>(key.domain));
  w.u8(static_cast<uint8_t>(key.kind));
  w.u8(static_cast<uint8_t>(key.vec_op));
  w.u8(0);  // pad, keeps the record word-aligned and greppable
  w.i32(key.m);
  w.i32(key.cfg);
  for (const int g : key.geom) w.i32(g);
  w.u64(cycles);
}

std::pair<TileKey, uint64_t> read_record(serde::Reader& r) {
  TileKey key;
  key.domain = static_cast<TileKey::Domain>(r.u8());
  key.kind = static_cast<KernelKind>(r.u8());
  key.vec_op = static_cast<OpType>(r.u8());
  r.u8();  // pad
  key.m = r.i32();
  key.cfg = r.i32();
  for (auto& g : key.geom) g = r.i32();
  return {key, r.u64()};
}

}  // namespace

size_t TileLatencyCache::save(const std::string& path) const {
  // snapshot ready entries under the lock; in-flight simulations on
  // other threads are skipped (they will be in the next save)
  std::vector<std::pair<TileKey, uint64_t>> ready;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ready.reserve(cache_.size());
    for (const auto& [key, fut] : cache_) {
      if (fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      ready.emplace_back(key, fut.get());
    }
  }
  serde::Writer records;
  records.u64(ready.size());
  for (const auto& [key, cycles] : ready) write_record(records, key, cycles);

  serde::Writer out;
  out.bytes(kMagic, sizeof(kMagic));
  out.u32(kVersion);
  out.u32(serde::crc32(records.buffer()));
  out.bytes(records.buffer().data(), records.buffer().size());
  serde::write_file_atomic(path, out.buffer());
  return ready.size();
}

size_t TileLatencyCache::load(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (!serde::read_file(path, bytes)) return 0;  // no warm file: cold start

  serde::Reader r(bytes, "latency cache file " + path);
  const auto magic = r.take(sizeof(kMagic));
  DECIMATE_CHECK(std::equal(magic.begin(), magic.end(),
                            reinterpret_cast<const uint8_t*>(kMagic)),
                 "latency cache file " << path << " has a bad magic");
  const uint32_t version = r.u32();
  DECIMATE_CHECK(version == kVersion,
                 "latency cache file " << path << " has version " << version
                                       << ", expected " << kVersion);
  const uint32_t crc = r.u32();
  const auto records = r.take(r.remaining());
  DECIMATE_CHECK(serde::crc32(records) == crc,
                 "latency cache file " << path << " is corrupt (CRC)");
  serde::Reader rr(records, "latency cache records of " + path);
  const uint64_t count = rr.u64();
  size_t inserted = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t i = 0; i < count; ++i) {
    const auto [key, cycles] = read_record(rr);
    if (cache_.count(key) != 0) continue;  // a measured value wins
    std::promise<uint64_t> prom;
    prom.set_value(cycles);
    cache_.emplace(key, prom.get_future().share());
    ++inserted;
  }
  return inserted;
}

}  // namespace decimate
