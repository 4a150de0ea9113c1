#pragma once
// Shared helpers for the benchmark binaries: single-layer graphs deployed
// through the compiler (tiling + DMA, as MATCH deploys the paper's single
// layers), and formatting utilities.

#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "models/models.hpp"
#include "nn/prune.hpp"

namespace decimate::bench {

/// Build a one-conv-layer graph with synthetic (optionally 1:M) weights.
inline Graph single_conv_graph(const ConvGeom& g, int m, uint64_t seed = 7) {
  Rng rng(seed);
  Graph graph({g.iy, g.ix, g.c});
  Node n;
  n.op = OpType::kConv2d;
  n.name = "conv";
  n.inputs = {0};
  n.conv = g;
  n.weights = Tensor8::random({g.k, g.fsz()}, rng);
  if (m != 0) nm_prune(n.weights.flat(), g.k, g.fsz(), 1, m);
  Tensor32 bias({g.k});
  for (int i = 0; i < g.k; ++i) bias[i] = rng.uniform_int(-500, 500);
  n.bias = std::move(bias);
  n.rq = calibrate_requant(g.fsz());
  n.out_shape = {g.oy(), g.ox(), g.k};
  graph.add(std::move(n));
  return graph;
}

inline Graph single_fc_graph(const FcGeom& g, int m, uint64_t seed = 7) {
  Rng rng(seed);
  Graph graph({g.tokens, g.c});
  Node n;
  n.op = OpType::kFc;
  n.name = "fc";
  n.inputs = {0};
  n.fc = g;
  n.weights = Tensor8::random({g.k, g.c}, rng);
  if (m != 0) nm_prune(n.weights.flat(), g.k, g.c, 1, m);
  Tensor32 bias({g.k});
  for (int i = 0; i < g.k; ++i) bias[i] = rng.uniform_int(-500, 500);
  n.bias = std::move(bias);
  n.rq = calibrate_requant(g.c);
  n.out_shape = {g.tokens, g.k};
  graph.add(std::move(n));
  return graph;
}

/// Deploy a single-layer graph and return the cycle report.
inline NetworkRun deploy(const Graph& g, const std::vector<int>& in_shape,
                         const CompileOptions& opt, uint64_t seed = 9) {
  Rng rng(seed);
  const Tensor8 input = Tensor8::random(in_shape, rng);
  return ExecutionEngine().run(Compiler(opt).compile(g), input);
}

inline CompileOptions dense_1x2_options() {
  CompileOptions o;
  o.enable_sparse = false;
  o.pulpnn_dense = false;
  return o;
}

inline CompileOptions pulpnn_options() {
  CompileOptions o;
  o.enable_sparse = false;
  o.pulpnn_dense = true;
  return o;
}

inline CompileOptions sparse_options(bool isa) {
  CompileOptions o;
  o.enable_sparse = true;
  o.enable_isa = isa;
  return o;
}

inline std::string mcyc(uint64_t cycles) {
  return Table::num(static_cast<double>(cycles) / 1e6, 2);
}

inline std::string speedup(uint64_t base, uint64_t x) {
  return Table::num(static_cast<double>(base) / static_cast<double>(x), 2) +
         "x";
}

}  // namespace decimate::bench
