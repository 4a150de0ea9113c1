#pragma once
// The three benchmark workloads and their fixed parameters.
//
// Every rate, deadline and mix below is an absolute constant. None is
// derived from the server's own estimates (sustained_img_per_s,
// ns_per_cycle), so a change to the cost model cannot change the load it
// is measured under. The open-loop rates were chosen against the capacity
// measured on a 4-core x86-64 VM with AVX-512 VNNI; they stay fixed
// whatever host the benchmark later runs on.
//
// BENCHMARK.json lists the two open loops. resnet18_nm_closed runs the
// same way but is left out of it: its figures follow the host's speed one
// to one, and on that shared VM its run-to-run spread (throughput IQR 31%
// of the median over ten 25 s runs) exceeded any regression bound worth
// having.

#include "common.hpp"

namespace perfbench {

// --- shared ----------------------------------------------------------------

// fresh setups before and again after each run's timed phase; setup_s is
// the median of all of them
constexpr int kSetupReps = 5;
constexpr int kReplayReps = 5;   // per-step replays; each step's median kept

// The bench_serving deployment: 4 modeled clusters, the xDecimate ISA
// kernels (paper Table 2), fused batches {1,2,4,8}.
constexpr int kClusters = 4;
constexpr int kFusedBatches[] = {1, 2, 4, 8};
constexpr int kServeMaxBatch = 8;
constexpr int kServeQueueDepth = 16;
constexpr uint64_t kWatchdogFloorNs = 20'000'000;

// --- resnet18_nm_closed ------------------------------------------------------

constexpr int kClosedBatch = 8;          // images per run_batch call
constexpr int kClosedM[] = {0, 8, 16};   // dense, 1:8, 1:16, round-robin
// per-batch deadlines, about 3x the batch times measured at the time
constexpr double kClosedDeadlineMs[] = {250.0, 300.0, 200.0};
constexpr int kClosedPool = 16;          // distinct inputs per model
// run_batch threads: one core is left to the host, so a batch does not
// wait on whichever of all four cores the host preempts.
constexpr int kClosedWorkers = 3;
constexpr double kClosedTailQ = 0.90;    // ~250 batches in 25 s

// --- vit_ffn_open ------------------------------------------------------------

constexpr int kFfnTokens = 196, kFfnDim = 384, kFfnHidden = 1536;
// Below saturation the server dispatches single requests, ~6.5 ms each
// including the handoff, so it sustains ~155 req/s before batches form
// (and refusals then swing with host speed: 150 req/s ran bistable).
// Half of that; at this load every refusal is a cost-model error.
constexpr double kVitRate = 80.0;        // Poisson arrivals, req/s
constexpr double kVitDeadlineMs = 40.0;  // both models
constexpr int kVitPool = 32;
constexpr double kVitTailQ = 0.99;       // ~3800 served requests in 50 s

// --- mixed_registry_open -----------------------------------------------------

// Single-request service (ResNet18 1:16 ~34 ms, ViT FFN 1:8 ~6.5 ms) puts
// this mix at about half of one executor's time, like vit_ffn_open; every
// refusal is then a misprediction of the one ns/cycle both models share.
// Overloaded rates were tried and dropped: the server's goodput there
// swung with its own batching state, not with the code under test. At
// 150 req/s with these deadlines slo_frac spread 29% (IQR over the median
// of ten runs) and a 10-14% slower host cost 21% of goodput; with 300 /
// 200 ms, 150 req/s sat at the batched capacity (goodput slid from 134 to
// 92 img/s within ten runs) and 280 req/s ran bistable (115-201 img/s).
constexpr double kMixedRate = 40.0;      // Poisson arrivals, req/s
constexpr int kMixedResnetEvery = 4;     // 1 ResNet18 1:16 : 3 ViT FFN 1:8
constexpr double kMixedResnetDeadlineMs = 150.0;
constexpr double kMixedVitDeadlineMs = 100.0;
constexpr int kMixedResnetPool = 16;
constexpr int kMixedVitPool = 32;
constexpr double kMixedTailQ = 0.99;     // ~2000 requests in 50 s

/// Open-loop validity: a run whose generator submitted later than this
/// (p99 of submit time minus due time) measured a different arrival
/// process and is rejected. Normal scheduling jitter on a loaded 4-core
/// VM stays below ~6 ms; half the shortest deadline is the limit.
constexpr double kMaxLagP99Ms = 20.0;

int run_closed_loop(const Args& args);
int run_vit_ffn_open(const Args& args);
int run_mixed_registry_open(const Args& args);

}  // namespace perfbench
