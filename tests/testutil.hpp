#pragma once
// Shared helpers for the test suite: deterministic random layers, sparse
// weight synthesis, and a small harness around Cluster/TileRunner.

#include <memory>

#include "common/rng.hpp"
#include "exec/tile_runner.hpp"
#include "nn/prune.hpp"
#include "sim/cluster.hpp"

namespace decimate::test {

/// Random dense int8 weights {rows, cols}.
inline Tensor8 random_weights(int rows, int cols, Rng& rng) {
  return Tensor8::random({rows, cols}, rng);
}

/// Random 1:M sparse int8 weights {rows, cols} (magnitude-pruned).
inline Tensor8 random_sparse_weights(int rows, int cols, int m, Rng& rng) {
  Tensor8 w = Tensor8::random({rows, cols}, rng);
  nm_prune(w.flat(), rows, cols, 1, m);
  return w;
}

/// Random bias in a range that keeps requant sane.
inline Tensor32 random_bias(int k, Rng& rng) {
  Tensor32 b({k});
  for (int i = 0; i < k; ++i) b[i] = rng.uniform_int(-2000, 2000);
  return b;
}

/// A requant typical of int8 layers (scale ~1/2^10 of the accumulator).
inline Requant test_requant() { return Requant{13, 13}; }

struct TestRig {
  explicit TestRig(int cores = 8, bool lockstep = false) {
    ClusterConfig cfg;
    cfg.num_cores = cores;
    cfg.lockstep = lockstep;
    cluster = std::make_unique<Cluster>(cfg);
    runner = std::make_unique<TileRunner>(*cluster);
  }
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TileRunner> runner;
};

}  // namespace decimate::test
