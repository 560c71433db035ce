#pragma once
// Shared fixtures/utilities for the test suite: a ready-made execution
// environment (device + dispatcher), blob fillers, and a numeric
// gradient checker in the Caffe style.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/glp4nn.hpp"
#include "minicaffe/net.hpp"

/// Attach the effective seed to every assertion in the enclosing scope,
/// so a failing randomized test prints how to replay it.
#define GLP_SCOPED_SEED(seed) \
  SCOPED_TRACE(::testing::Message() << "replay with GLP_TEST_SEED=" << (seed))

namespace glptest {

/// Seed for randomized tests. The GLP_TEST_SEED environment variable
/// overrides the per-test default, letting a failure found by the fuzz
/// driver replay inside any gtest binary:
///
///   GLP_TEST_SEED=1337 ./tests/fuzz_regression_test
inline std::uint64_t test_seed(std::uint64_t default_seed) {
  if (const char* env = std::getenv("GLP_TEST_SEED")) {
    char* end = nullptr;
    const std::uint64_t parsed = std::strtoull(env, &end, 10);
    if (end != env) return parsed;
  }
  return default_seed;
}

/// Owns a simulated device plus the serial dispatcher and exposes an
/// ExecContext.
struct Env {
  explicit Env(gpusim::DeviceProps props = gpusim::DeviceTable::p100(),
               kern::ComputeMode mode = kern::ComputeMode::kNumeric)
      : ctx(std::move(props)), dispatcher(ctx) {
    ec.ctx = &ctx;
    ec.dispatcher = &dispatcher;
    ec.mode = mode;
  }

  scuda::Context ctx;
  kern::SerialDispatcher dispatcher;
  mc::ExecContext ec;

  void sync() { ctx.device().synchronize(); }
};

/// Env driven by a GLP4NN engine instead of the serial dispatcher (a
/// fixed pool sets SchedulerOptions::fixed_streams).
struct GlpEnv {
  explicit GlpEnv(gpusim::DeviceProps props = gpusim::DeviceTable::p100(),
                  glp4nn::SchedulerOptions options = {},
                  kern::ComputeMode mode = kern::ComputeMode::kNumeric)
      : ctx(std::move(props)), engine(options) {
    ec.ctx = &ctx;
    ec.dispatcher = &engine.scheduler_for(ctx);
    ec.mode = mode;
  }

  scuda::Context ctx;
  glp4nn::Glp4nnEngine engine;
  mc::ExecContext ec;

  void sync() { ctx.device().synchronize(); }
};

inline void fill_random(mc::Blob& blob, glp::Rng& rng, float lo = -1.0f,
                        float hi = 1.0f) {
  float* data = blob.mutable_data();
  for (std::size_t i = 0; i < blob.count(); ++i) data[i] = rng.uniform(lo, hi);
}

inline std::vector<float> snapshot(const float* data, std::size_t count) {
  return std::vector<float>(data, data + count);
}

inline double max_abs_diff(const std::vector<float>& a,
                           const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

/// Numeric gradient check for a layer: perturbs each checked input element
/// by ±eps, uses loss L = Σ w_i · top_i with fixed random weights, and
/// compares dL/dx to the layer's backward output.
class GradientChecker {
 public:
  GradientChecker(double eps = 1e-2, double threshold = 1e-2)
      : eps_(eps), threshold_(threshold) {}

  /// check gradients w.r.t. bottom blob `check_bottom` (or a param blob
  /// when `check_param` >= 0).
  void check(Env& env, mc::Layer& layer, std::vector<mc::Blob*> bottom,
             std::vector<mc::Blob*> top, int check_bottom, int check_param = -1,
             std::size_t max_elements = 64);

 private:
  double objective(Env& env, mc::Layer& layer,
                   const std::vector<mc::Blob*>& bottom,
                   const std::vector<mc::Blob*>& top,
                   const std::vector<float>& weights);

  double eps_;
  double threshold_;
};

inline double GradientChecker::objective(Env& env, mc::Layer& layer,
                                         const std::vector<mc::Blob*>& bottom,
                                         const std::vector<mc::Blob*>& top,
                                         const std::vector<float>& weights) {
  layer.forward(bottom, top);
  env.sync();
  double obj = 0.0;
  std::size_t w = 0;
  for (const mc::Blob* t : top) {
    const float* data = t->data();
    for (std::size_t i = 0; i < t->count(); ++i) obj += weights[w++] * data[i];
  }
  return obj;
}

inline void GradientChecker::check(Env& env, mc::Layer& layer,
                                   std::vector<mc::Blob*> bottom,
                                   std::vector<mc::Blob*> top, int check_bottom,
                                   int check_param, std::size_t max_elements) {
  glp::Rng rng(1234);
  std::size_t top_count = 0;
  for (const mc::Blob* t : top) top_count += t->count();
  std::vector<float> weights(top_count);
  for (float& w : weights) w = rng.uniform(-1.0f, 1.0f);

  // Analytic gradients: seed top diffs with the objective weights.
  layer.forward(bottom, top);
  env.sync();
  std::size_t w = 0;
  for (mc::Blob* t : top) {
    float* diff = t->mutable_diff();
    for (std::size_t i = 0; i < t->count(); ++i) diff[i] = weights[w++];
  }
  for (mc::Blob* b : bottom) {
    std::fill(b->mutable_diff(), b->mutable_diff() + b->count(), 0.0f);
  }
  for (const auto& p : layer.param_blobs()) {
    std::fill(p->mutable_diff(), p->mutable_diff() + p->count(), 0.0f);
  }
  std::vector<bool> propagate(bottom.size(), true);
  layer.backward(top, propagate, bottom);
  env.sync();

  mc::Blob* target = check_param >= 0 ? layer.param_blobs()[static_cast<std::size_t>(check_param)].get()
                                      : bottom[static_cast<std::size_t>(check_bottom)];
  const std::vector<float> analytic = snapshot(target->diff(), target->count());

  // Numeric gradients on a subsample of elements.
  const std::size_t count = target->count();
  const std::size_t stride = std::max<std::size_t>(1, count / max_elements);
  for (std::size_t i = 0; i < count; i += stride) {
    float* data = target->mutable_data();
    const float saved = data[i];
    data[i] = saved + static_cast<float>(eps_);
    const double plus = objective(env, layer, bottom, top, weights);
    target->mutable_data()[i] = saved - static_cast<float>(eps_);
    const double minus = objective(env, layer, bottom, top, weights);
    target->mutable_data()[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps_);
    const double scale =
        std::max({1.0, std::abs(numeric), std::abs(static_cast<double>(analytic[i]))});
    EXPECT_NEAR(analytic[i], numeric, threshold_ * scale)
        << "element " << i << " of "
        << (check_param >= 0 ? "param" : "bottom");
  }
  // Restore a clean forward state for any follow-up assertions.
  layer.forward(bottom, top);
  env.sync();
}

}  // namespace glptest
