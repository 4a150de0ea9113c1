#pragma once
// Versioned-record binary I/O, shared by the TileLatencyCache warm files
// and the plan-artifact registry (src/artifact).
//
// Every multi-byte field is written little-endian with an explicit width,
// so a file written on one host parses identically on any other — the
// registry's whole point is that a compile farm writes artifacts a
// serving fleet reads. Readers are bounds-checked: running off the end of
// a buffer (a truncated download, a torn file) throws decimate::Error
// with the reader's context string instead of reading garbage, and an
// element count is bounded by the bytes left before anything is sized
// with it (count()).

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace decimate::serde {

/// Append-only little-endian byte sink. pos() is the next write offset;
/// patch_* rewrites a previously written fixed-width field (section
/// tables are written as placeholders and patched once sizes are known).
class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { le(v); }
  void u32(uint32_t v) { le(v); }
  void u64(uint64_t v) { le(v); }
  void i8(int8_t v) { u8(static_cast<uint8_t>(v)); }
  void i16(int16_t v) { u16(static_cast<uint16_t>(v)); }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void f64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// u32 length prefix + raw bytes.
  void str(const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  /// u64 count prefix + raw element bytes (fixed-width element types
  /// only; use explicit per-field writes for structs).
  template <typename T, typename Alloc>
  void pod_vec(const std::vector<T, Alloc>& v) {
    static_assert(sizeof(T) == 1, "pod_vec is for byte element types; "
                                  "multi-byte fields need explicit widths");
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size());
  }

  /// Zero-pad so pos() is a multiple of `a`.
  void align(size_t a) {
    while (buf_.size() % a != 0) buf_.push_back(0);
  }

  size_t pos() const { return buf_.size(); }

  void patch_u32(size_t at, uint32_t v) { patch(at, v); }
  void patch_u64(size_t at, uint64_t v) { patch(at, v); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void le(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  template <typename T>
  void patch(size_t at, T v) {
    DECIMATE_CHECK(at + sizeof(T) <= buf_.size(),
                   "serde patch outside buffer");
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte span. `what`
/// names the source (a path, a section) in error messages.
class Reader {
 public:
  Reader(std::span<const uint8_t> data, std::string what)
      : data_(data), what_(std::move(what)) {}

  uint8_t u8() { return take(1)[0]; }
  uint16_t u16() { return le<uint16_t>(); }
  uint32_t u32() { return le<uint32_t>(); }
  uint64_t u64() { return le<uint64_t>(); }
  int8_t i8() { return static_cast<int8_t>(u8()); }
  int16_t i16() { return static_cast<int16_t>(u16()); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    const uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const uint32_t n = u32();
    const auto b = take(n);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// Read an element count stored as a `T` (uint32_t or uint64_t) and
  /// bound it by the bytes left, each element taking at least
  /// `min_bytes`: an edited count throws here instead of sizing an
  /// allocation the input cannot fill.
  template <typename T>
  size_t count(size_t min_bytes) {
    const uint64_t n = le<T>();
    DECIMATE_CHECK(n <= remaining() / min_bytes,
                   what_ << ": count " << n << " before offset " << off_
                         << " exceeds the " << remaining()
                         << " bytes left");
    return static_cast<size_t>(n);
  }

  /// Borrow `n` raw bytes (no copy; valid while the backing span lives).
  std::span<const uint8_t> take(size_t n) {
    DECIMATE_CHECK(n <= remaining(),
                   what_ << ": truncated (need " << n << " bytes at offset "
                         << off_ << ", have " << remaining() << ")");
    const auto out = data_.subspan(off_, n);
    off_ += n;
    return out;
  }

  void skip_align(size_t a) {
    while (off_ % a != 0) {
      DECIMATE_CHECK(off_ < data_.size(), what_ << ": truncated padding");
      ++off_;
    }
  }

  size_t pos() const { return off_; }
  size_t remaining() const { return data_.size() - off_; }
  bool done() const { return off_ == data_.size(); }
  const std::string& what() const { return what_; }

 private:
  template <typename T>
  T le() {
    const auto b = take(sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(b[i]) << (8 * i)));
    }
    return v;
  }

  std::span<const uint8_t> data_;
  size_t off_ = 0;
  std::string what_;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte span. Chainable:
/// pass a previous result as `seed` to extend it.
uint32_t crc32(std::span<const uint8_t> data, uint32_t seed = 0);

/// Read a whole file into `out`. Returns false when the file does not
/// exist (callers treat that as a cold start); throws on a read error.
bool read_file(const std::string& path, std::vector<uint8_t>& out);

/// Write-then-rename so a killed process never leaves a truncated file at
/// `path` — readers see either the old bytes or the complete new ones.
void write_file_atomic(const std::string& path,
                       std::span<const uint8_t> data);

}  // namespace decimate::serde
