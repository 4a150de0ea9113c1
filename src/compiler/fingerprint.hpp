#pragma once
// Graph / options identity fingerprints.
//
// A CompiledPlan is a pure function of (graph content, compile options):
// kernel selection reads the weight values (the 1:M pattern matcher), the
// cost model reads every geometry field, and the engine reads weights,
// biases, LUTs and requant constants. A sound compile-once key therefore
// hashes all of it — topology, geometry, op payloads, and the raw
// parameter bytes — so two Graph objects with equal fingerprints lower to
// identical plans and produce identical runs.
//
// 64-bit FNV-1a. Keys the serve PlanStore, the MultiClusterEngine
// shard-plan cache and the plan registry; a collision would silently
// reuse the wrong plan, so everything the compiler or engine can observe
// must be folded in.

#include <cstdint>

#include "compiler/graph.hpp"
#include "compiler/pattern.hpp"

namespace decimate {

/// Content fingerprint of a graph: node topology, shapes, geometries,
/// requant constants, and all parameter tensors (weights/bias/LUTs/...).
/// Carries no compile options — combine with options_fingerprint (or use
/// plan_fingerprint) whenever plans under different options share a cache.
/// A pass over every parameter byte; each call bumps the always-on
/// compiler.graph_fingerprints counter.
uint64_t graph_fingerprint(const Graph& graph);

/// Fingerprint of every compile option that shapes a plan: kernel
/// selection flags, cluster configuration, batch fusion, and the shard
/// config (num_clusters changes tile grids, so two shard counts must
/// never collide in a plan cache).
uint64_t options_fingerprint(const CompileOptions& opt);

/// Plan identity: a CompiledPlan is a pure function of (graph content,
/// options), so this is the sound key for any cache that outlives a
/// single Compiler — the PlanStore and the MultiClusterEngine shard-plan
/// cache both key on it.
uint64_t plan_fingerprint(const Graph& graph, const CompileOptions& opt);

/// plan_fingerprint from an already-computed graph fingerprint:
/// plan_fingerprint_from(graph_fingerprint(g), opt) == plan_fingerprint(g,
/// opt). Lets indices that serve many (batch x cluster) configs of one
/// graph (the serve PlanStore) pay the O(parameter-bytes) content scan
/// once per model instead of once per lookup.
uint64_t plan_fingerprint_from(uint64_t graph_fp, const CompileOptions& opt);

}  // namespace decimate
