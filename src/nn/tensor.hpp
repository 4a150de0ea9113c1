#pragma once
// Minimal dense tensor with row-major layout. Activations use HWC
// ({H, W, C}) as on PULP-NN; weights use {K, FY*FX*C} patch-major rows
// (fy, fx, c order), matching the kernels' im2col buffers.

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace decimate {

template <typename T>
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape, T fill = T{})
      : shape_(std::move(shape)), data_(checked_numel(shape_), fill) {}

  static Tensor random(std::vector<int> shape, Rng& rng, int lo = -127,
                       int hi = 127) {
    Tensor t(std::move(shape));
    for (auto& v : t.data_) v = static_cast<T>(rng.uniform_int(lo, hi));
    return t;
  }

  const std::vector<int>& shape() const { return shape_; }
  int dim(size_t i) const {
    DECIMATE_CHECK(i < shape_.size(), "dim index out of range");
    return shape_[i];
  }
  int rank() const { return static_cast<int>(shape_.size()); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::span<T> flat() { return data_; }
  std::span<const T> flat() const { return data_; }
  std::span<const uint8_t> bytes() const {
    return {reinterpret_cast<const uint8_t*>(data_.data()),
            data_.size() * sizeof(T)};
  }

  T& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  const T& operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Row-major multi-index access.
  T& at(std::initializer_list<int> idx) { return data_[flat_index(idx)]; }
  const T& at(std::initializer_list<int> idx) const {
    return data_[flat_index(idx)];
  }

  bool operator==(const Tensor& o) const {
    return shape_ == o.shape_ && data_ == o.data_;
  }

 private:
  static size_t checked_numel(const std::vector<int>& shape) {
    // each dim is bounded by what is left of the limit before it is
    // multiplied in, so the running product never overflows
    constexpr int64_t kMaxNumel = (int64_t{1} << 31) - 1;
    int64_t n = 1;
    for (int d : shape) {
      DECIMATE_CHECK(d > 0, "tensor dims must be positive, got " << d);
      DECIMATE_CHECK(d <= kMaxNumel / n,
                     "tensor too large: more than " << kMaxNumel
                                                    << " elements");
      n *= d;
    }
    return static_cast<size_t>(n);
  }

  size_t flat_index(std::initializer_list<int> idx) const {
    DECIMATE_CHECK(idx.size() == shape_.size(),
                   "index rank " << idx.size() << " != tensor rank "
                                 << shape_.size());
    int64_t flat = 0;
    size_t d = 0;
    for (int i : idx) {
      DECIMATE_CHECK(i >= 0 && i < shape_[d], "index " << i << " out of range "
                                                       << shape_[d]);
      flat = flat * shape_[d] + i;
      ++d;
    }
    return static_cast<size_t>(flat);
  }

  std::vector<int> shape_;
  // 64-byte-aligned backing storage: a vector load at the base of any
  // tensor never straddles a cache line (see common/aligned.hpp)
  std::vector<T, AlignedAlloc<T>> data_;
};

static_assert(kHostAlign % 64 == 0,
              "tensor backing storage must be at least 64-byte aligned");

using Tensor8 = Tensor<int8_t>;
using Tensor32 = Tensor<int32_t>;
using TensorF = Tensor<float>;

}  // namespace decimate
