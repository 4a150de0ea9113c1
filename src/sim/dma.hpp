#pragma once
// Cluster DMA model: functional copies inside SocMemory plus a cycle cost
// model (startup + bandwidth). The schedule executor uses the cost side to
// overlap transfers with compute (double buffering), as MATCH does on Vega.

#include <cstdint>

#include "sim/memory.hpp"

namespace decimate {

struct DmaConfig {
  // L2 <-> L1 (cluster DMA over the 64-bit AXI port)
  uint32_t l2_startup_cycles = 20;
  double l2_bytes_per_cycle = 8.0;
  // L3 <-> L2 (HyperRAM-class external memory)
  uint32_t l3_startup_cycles = 300;
  double l3_bytes_per_cycle = 1.0;
  // Extra cost per row of a 2D (strided) transfer
  uint32_t per_row_cycles = 2;

  /// Cycle cost of a 1D transfer of `bytes` between two regions: pure
  /// arithmetic, usable without a simulated memory.
  uint64_t cost_1d(uint64_t bytes, MemRegion a, MemRegion b) const;
};

class DmaModel {
 public:
  explicit DmaModel(SocMemory& mem, const DmaConfig& cfg = {})
      : mem_(&mem), cfg_(cfg) {}

  const DmaConfig& config() const { return cfg_; }

  /// Cost of a 1D transfer of `bytes` between two regions (no data moved).
  uint64_t cost_1d(uint64_t bytes, MemRegion a, MemRegion b) const {
    return cfg_.cost_1d(bytes, a, b);
  }

  /// Cost of a 2D transfer (rows x row_bytes) between two regions.
  uint64_t cost_2d(uint64_t rows, uint64_t row_bytes, MemRegion a,
                   MemRegion b) const;

  /// Functional 1D copy; returns its cycle cost.
  uint64_t copy_1d(uint32_t dst, uint32_t src, uint32_t bytes);

  /// Functional 2D copy with independent strides; returns its cycle cost.
  uint64_t copy_2d(uint32_t dst, uint32_t src, uint32_t rows,
                   uint32_t row_bytes, uint32_t dst_stride,
                   uint32_t src_stride);

  /// Functional fill (used to materialize zero padding); returns cost.
  uint64_t fill(uint32_t dst, uint32_t bytes, uint8_t value);

 private:
  SocMemory* mem_;
  DmaConfig cfg_;
};

}  // namespace decimate
