#include "train/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "exec/compile.hpp"
#include "exec/engine.hpp"
#include "nn/prune.hpp"

namespace decimate {

SynthDataset SynthDataset::make(int n, int dim, int classes, double spread,
                                Rng& rng, uint64_t task_seed) {
  SynthDataset ds;
  ds.dim = dim;
  ds.classes = classes;
  ds.x.resize(static_cast<size_t>(n) * dim);
  ds.y.resize(static_cast<size_t>(n));
  Rng center_rng(task_seed);
  std::vector<float> centers(static_cast<size_t>(classes) * dim);
  for (auto& c : centers) c = static_cast<float>(center_rng.normal());
  for (int i = 0; i < n; ++i) {
    const int cls = rng.uniform_int(0, classes - 1);
    ds.y[static_cast<size_t>(i)] = cls;
    for (int d = 0; d < dim; ++d) {
      ds.x[static_cast<size_t>(i) * dim + d] =
          centers[static_cast<size_t>(cls) * dim + d] +
          static_cast<float>(rng.normal() * spread);
    }
  }
  return ds;
}

Mlp::Mlp(const MlpConfig& cfg) : cfg_(cfg) {
  Rng rng(cfg.seed);
  const auto init = [&](std::vector<float>& w, int fan_in, size_t n) {
    w.resize(n);
    const double s = 1.0 / std::sqrt(static_cast<double>(fan_in));
    for (auto& v : w) v = static_cast<float>(rng.normal() * s);
  };
  init(w1_, cfg.in, static_cast<size_t>(cfg.hidden) * cfg.in);
  init(w2_, cfg.hidden, static_cast<size_t>(cfg.classes) * cfg.hidden);
  b1_.assign(static_cast<size_t>(cfg.hidden), 0.f);
  b2_.assign(static_cast<size_t>(cfg.classes), 0.f);
  project();
}

void Mlp::project() {
  if (cfg_.nm_m == 0) return;
  nm_prune(std::span<float>(w1_), cfg_.hidden, cfg_.in, 1, cfg_.nm_m);
  nm_prune(std::span<float>(w2_), cfg_.classes, cfg_.hidden, 1, cfg_.nm_m);
}

void Mlp::forward(const float* x, std::vector<float>& h,
                  std::vector<float>& logits) const {
  h.assign(static_cast<size_t>(cfg_.hidden), 0.f);
  for (int j = 0; j < cfg_.hidden; ++j) {
    float acc = b1_[static_cast<size_t>(j)];
    const float* w = w1_.data() + static_cast<int64_t>(j) * cfg_.in;
    for (int i = 0; i < cfg_.in; ++i) acc += w[i] * x[i];
    h[static_cast<size_t>(j)] = std::max(acc, 0.f);
  }
  logits.assign(static_cast<size_t>(cfg_.classes), 0.f);
  for (int k = 0; k < cfg_.classes; ++k) {
    float acc = b2_[static_cast<size_t>(k)];
    const float* w = w2_.data() + static_cast<int64_t>(k) * cfg_.hidden;
    for (int j = 0; j < cfg_.hidden; ++j) acc += w[j] * h[static_cast<size_t>(j)];
    logits[static_cast<size_t>(k)] = acc;
  }
}

void Mlp::train(const SynthDataset& train_set) {
  Rng rng(cfg_.seed + 1);
  std::vector<float> h, logits, p(static_cast<size_t>(cfg_.classes));
  std::vector<float> dh(static_cast<size_t>(cfg_.hidden));
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    for (int step = 0; step < train_set.size(); ++step) {
      const int i = rng.uniform_int(0, train_set.size() - 1);
      const float* x = train_set.sample(i);
      forward(x, h, logits);
      // softmax + cross-entropy gradient
      float mx = logits[0];
      for (float v : logits) mx = std::max(mx, v);
      float sum = 0.f;
      for (int k = 0; k < cfg_.classes; ++k) {
        p[static_cast<size_t>(k)] = std::exp(logits[static_cast<size_t>(k)] - mx);
        sum += p[static_cast<size_t>(k)];
      }
      for (auto& v : p) v /= sum;
      p[static_cast<size_t>(train_set.y[static_cast<size_t>(i)])] -= 1.f;
      // backward: layer 2
      std::fill(dh.begin(), dh.end(), 0.f);
      const auto lr = static_cast<float>(cfg_.lr);
      for (int k = 0; k < cfg_.classes; ++k) {
        float* w = w2_.data() + static_cast<int64_t>(k) * cfg_.hidden;
        const float g = p[static_cast<size_t>(k)];
        for (int j = 0; j < cfg_.hidden; ++j) {
          dh[static_cast<size_t>(j)] += g * w[j];
          w[j] -= lr * g * h[static_cast<size_t>(j)];
        }
        b2_[static_cast<size_t>(k)] -= lr * g;
      }
      // layer 1 (through ReLU)
      for (int j = 0; j < cfg_.hidden; ++j) {
        if (h[static_cast<size_t>(j)] <= 0.f) continue;
        const float g = dh[static_cast<size_t>(j)];
        float* w = w1_.data() + static_cast<int64_t>(j) * cfg_.in;
        for (int d = 0; d < cfg_.in; ++d) w[d] -= lr * g * x[d];
        b1_[static_cast<size_t>(j)] -= lr * g;
      }
      project();  // projected SGD: re-impose the 1:M pattern each step
    }
  }
}

double Mlp::accuracy(const SynthDataset& test_set) const {
  std::vector<float> h, logits;
  int correct = 0;
  for (int i = 0; i < test_set.size(); ++i) {
    forward(test_set.sample(i), h, logits);
    const int pred = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    correct += (pred == test_set.y[static_cast<size_t>(i)]);
  }
  return static_cast<double>(correct) / test_set.size();
}

Graph Mlp::to_int8_graph(float input_scale) const {
  Graph g({1, cfg_.in});
  // layer 1
  Tensor8 w1q({cfg_.hidden, cfg_.in});
  const float s_w1 = quantize_symmetric(w1_, w1q.flat());
  Tensor8 w2q({cfg_.classes, cfg_.hidden});
  const float s_w2 = quantize_symmetric(w2_, w2q.flat());
  const float s_h = 0.05f;       // hidden activation scale
  const float s_out = 0.25f;     // logits scale
  auto bias_q = [&](const std::vector<float>& b, float s_acc) {
    Tensor32 out({static_cast<int>(b.size())});
    for (size_t i = 0; i < b.size(); ++i) {
      out[static_cast<int64_t>(i)] =
          static_cast<int32_t>(std::lround(b[i] / s_acc));
    }
    return out;
  };
  Node fc1;
  fc1.op = OpType::kFc;
  fc1.name = "fc1";
  fc1.inputs = {0};
  fc1.fc = FcGeom{.tokens = 1, .c = cfg_.in, .k = cfg_.hidden};
  fc1.weights = w1q;
  fc1.bias = bias_q(b1_, input_scale * s_w1);
  fc1.rq = make_requant(static_cast<double>(input_scale) * s_w1 / s_h,
                        static_cast<int64_t>(cfg_.in) * 127 * 127);
  fc1.out_shape = {1, cfg_.hidden};
  const int id1 = g.add(std::move(fc1));
  Node r;
  r.op = OpType::kRelu;
  r.name = "relu";
  r.inputs = {id1};
  r.out_shape = {1, cfg_.hidden};
  const int id2 = g.add(std::move(r));
  Node fc2;
  fc2.op = OpType::kFc;
  fc2.name = "fc2";
  fc2.inputs = {id2};
  fc2.fc = FcGeom{.tokens = 1, .c = cfg_.hidden, .k = cfg_.classes};
  fc2.weights = w2q;
  fc2.bias = bias_q(b2_, s_h * s_w2);
  fc2.rq = make_requant(static_cast<double>(s_h) * s_w2 / s_out,
                        static_cast<int64_t>(cfg_.hidden) * 127 * 127);
  fc2.out_shape = {1, cfg_.classes};
  g.add(std::move(fc2));
  return g;
}

Tensor8 Mlp::quantize_input(const float* x, float input_scale) const {
  Tensor8 q({1, cfg_.in});
  for (int i = 0; i < cfg_.in; ++i) {
    const auto v = static_cast<int>(std::lround(x[i] / input_scale));
    q[i] = static_cast<int8_t>(std::clamp(v, -127, 127));
  }
  return q;
}

std::vector<AccuracyPoint> accuracy_trend_experiment(int test_samples,
                                                     uint64_t seed) {
  Rng rng(seed);
  const int dim = 32, classes = 10;
  const SynthDataset train_set =
      SynthDataset::make(2000, dim, classes, 2.0, rng);
  const SynthDataset test_set =
      SynthDataset::make(test_samples, dim, classes, 2.0, rng);
  const float input_scale = 0.05f;

  std::vector<AccuracyPoint> points;
  for (int m : {0, 4, 8, 16}) {
    MlpConfig cfg;
    cfg.nm_m = m;
    Mlp mlp(cfg);
    mlp.train(train_set);
    AccuracyPoint pt;
    pt.m = m;
    pt.float_acc = mlp.accuracy(test_set);
    // int8 deployment through the compiler/executor stack: compile the
    // graph once, then stream the whole test set through the pipelined
    // batch engine in one call
    const Graph g = mlp.to_int8_graph(input_scale);
    CompileOptions copt;
    copt.enable_isa = true;
    Compiler compiler(copt);
    const CompiledPlan plan = compiler.compile(g);
    ExecutionEngine engine;
    std::vector<Tensor8> qx;
    qx.reserve(static_cast<size_t>(test_set.size()));
    for (int i = 0; i < test_set.size(); ++i) {
      qx.push_back(mlp.quantize_input(test_set.sample(i), input_scale));
    }
    const BatchRun batch = engine.run_batch(plan, qx);
    int correct = 0;
    for (int i = 0; i < test_set.size(); ++i) {
      const NetworkRun& run = batch.runs[static_cast<size_t>(i)];
      int pred = 0;
      for (int k = 1; k < classes; ++k) {
        if (run.output[k] > run.output[pred]) pred = k;
      }
      correct += (pred == test_set.y[static_cast<size_t>(i)]);
    }
    pt.int8_acc = static_cast<double>(correct) / test_set.size();
    points.push_back(pt);
  }
  return points;
}

}  // namespace decimate
