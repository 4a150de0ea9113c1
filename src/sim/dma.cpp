#include "sim/dma.hpp"

#include "common/bitutil.hpp"

namespace decimate {

uint64_t DmaConfig::cost_1d(uint64_t bytes, MemRegion a, MemRegion b) const {
  if (bytes == 0) return 0;
  if (a == MemRegion::kL3 || b == MemRegion::kL3) {
    return l3_startup_cycles +
           static_cast<uint64_t>(
               ceil_div(static_cast<int64_t>(bytes),
                        static_cast<int64_t>(l3_bytes_per_cycle)));
  }
  return l2_startup_cycles +
         static_cast<uint64_t>(
             ceil_div(static_cast<int64_t>(bytes),
                      static_cast<int64_t>(l2_bytes_per_cycle)));
}

uint64_t DmaModel::cost_2d(uint64_t rows, uint64_t row_bytes, MemRegion a,
                           MemRegion b) const {
  if (rows == 0 || row_bytes == 0) return 0;
  return cost_1d(rows * row_bytes, a, b) + rows * cfg_.per_row_cycles;
}

uint64_t DmaModel::copy_1d(uint32_t dst, uint32_t src, uint32_t bytes) {
  mem_->copy(dst, src, bytes);
  return cost_1d(bytes, mem_->region(src), mem_->region(dst));
}

uint64_t DmaModel::copy_2d(uint32_t dst, uint32_t src, uint32_t rows,
                           uint32_t row_bytes, uint32_t dst_stride,
                           uint32_t src_stride) {
  for (uint32_t r = 0; r < rows; ++r) {
    mem_->copy(dst + r * dst_stride, src + r * src_stride, row_bytes);
  }
  if (rows == 0 || row_bytes == 0) return 0;
  return cost_2d(rows, row_bytes, mem_->region(src), mem_->region(dst));
}

uint64_t DmaModel::fill(uint32_t dst, uint32_t bytes, uint8_t value) {
  mem_->fill(dst, bytes, value);
  return cost_1d(bytes, MemRegion::kL1, mem_->region(dst));
}

}  // namespace decimate
