#pragma once
// Accuracy-trend substitute for Table 2's accuracy column (see DESIGN.md):
// a float MLP trained with N:M projected SGD (the inference-side analogue
// of Zhou et al. 2021's training scheme) on a synthetic Gaussian-mixture
// classification task, then quantized to int8 and deployed through the
// same graph/executor stack as the paper's networks. The claim reproduced
// is the *trend* — dense ≈ 1:4 ≥ 1:8 ≥ 1:16 with small degradations — not
// the paper's absolute CIFAR numbers (we have no CIFAR here).

#include <vector>

#include "common/rng.hpp"
#include "compiler/graph.hpp"

namespace decimate {

struct SynthDataset {
  int dim = 0;
  int classes = 0;
  std::vector<float> x;  // n x dim
  std::vector<int> y;    // n

  int size() const { return static_cast<int>(y.size()); }
  const float* sample(int i) const { return x.data() + static_cast<int64_t>(i) * dim; }

  /// Gaussian clusters, one per class. Class centers are derived from
  /// `task_seed` so that several calls (train/test splits) share the same
  /// underlying task; `rng` drives the per-sample noise.
  static SynthDataset make(int n, int dim, int classes, double spread,
                           Rng& rng, uint64_t task_seed = 2718);
};

struct MlpConfig {
  int in = 32;
  int hidden = 128;
  int classes = 10;
  int epochs = 25;
  double lr = 0.005;
  int nm_m = 0;  // 0 = dense; otherwise project both layers to 1:M
  uint64_t seed = 1234;
};

/// Two-layer ReLU MLP with plain SGD + optional per-step 1:M magnitude
/// projection (projected gradient descent).
class Mlp {
 public:
  explicit Mlp(const MlpConfig& cfg);

  void train(const SynthDataset& train_set);
  double accuracy(const SynthDataset& test_set) const;

  /// Quantize to int8 and build a 2-layer FC graph runnable by the
  /// Compiler + ExecutionEngine (weights keep their trained N:M pattern).
  Graph to_int8_graph(float input_scale) const;
  /// Quantize a float sample to the int8 input of to_int8_graph().
  Tensor8 quantize_input(const float* x, float input_scale) const;

  const MlpConfig& config() const { return cfg_; }

 private:
  void forward(const float* x, std::vector<float>& h,
               std::vector<float>& logits) const;
  void project();

  MlpConfig cfg_;
  std::vector<float> w1_, b1_;  // hidden x in
  std::vector<float> w2_, b2_;  // classes x hidden
};

struct AccuracyPoint {
  int m = 0;          // 0 = dense
  double float_acc = 0.0;
  double int8_acc = 0.0;  // deployed through the executor stack
};

/// Train dense + the three sparsity levels and evaluate both float and
/// int8-deployed accuracy.
std::vector<AccuracyPoint> accuracy_trend_experiment(int test_samples = 400,
                                                     uint64_t seed = 99);

}  // namespace decimate
