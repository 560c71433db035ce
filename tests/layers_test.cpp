#include <set>

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "kernels/cpu_math.hpp"
#include "minicaffe/layer.hpp"
#include "minicaffe/layers/activation_layers.hpp"
#include "minicaffe/layers/data_layer.hpp"
#include "minicaffe/layers/input_layer.hpp"
#include "test_helpers.hpp"

namespace {

using glptest::Env;
using glptest::GradientChecker;
using mc::Blob;
using mc::LayerSpec;

LayerSpec spec_of(std::string type, std::string name = "test") {
  LayerSpec s;
  s.type = std::move(type);
  s.name = std::move(name);
  s.bottoms = {"in"};
  s.tops = {"out"};
  return s;
}

struct LayerTest : ::testing::Test {
  Env env;
  glp::Rng rng{2024};
};

// --- Convolution --------------------------------------------------------------------

TEST_F(LayerTest, ConvolutionOutputShape) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 8;
  s.params.kernel_size = 3;
  s.params.pad = 1;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 3, 7, 7}), out(env.ctx);
  layer->setup({&in}, {&out});
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 8, 7, 7}));
  ASSERT_EQ(layer->param_blobs().size(), 2u);
  EXPECT_EQ(layer->param_blobs()[0]->shape(), (std::vector<int>{8, 27}));
  EXPECT_EQ(layer->param_blobs()[1]->shape(), (std::vector<int>{8}));
}

TEST_F(LayerTest, ConvolutionStrideAndPadShapes) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 96;
  s.params.kernel_size = 11;
  s.params.stride = 4;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 3, 227, 227}), out(env.ctx);
  layer->setup({&in}, {&out});
  EXPECT_EQ(out.height(), 55);  // CaffeNet conv1
}

TEST_F(LayerTest, ConvolutionForwardMatchesDirectConvolution) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 2;
  s.params.kernel_size = 3;
  s.params.pad = 1;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 2, 5, 5}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&out});
  env.sync();

  // Direct convolution reference.
  const float* w = layer->param_blobs()[0]->data();
  const float* bias = layer->param_blobs()[1]->data();
  for (int n = 0; n < 2; ++n) {
    for (int co = 0; co < 2; ++co) {
      for (int oh = 0; oh < 5; ++oh) {
        for (int ow = 0; ow < 5; ++ow) {
          double acc = bias[co];
          for (int ci = 0; ci < 2; ++ci) {
            for (int kh = 0; kh < 3; ++kh) {
              for (int kw = 0; kw < 3; ++kw) {
                const int ih = oh - 1 + kh;
                const int iw = ow - 1 + kw;
                if (ih < 0 || ih >= 5 || iw < 0 || iw >= 5) continue;
                const float x =
                    in.data()[((n * 2 + ci) * 5 + ih) * 5 + iw];
                const float ww = w[(co * 2 + ci) * 9 + kh * 3 + kw];
                acc += static_cast<double>(x) * ww;
              }
            }
          }
          const float got = out.data()[((n * 2 + co) * 5 + oh) * 5 + ow];
          ASSERT_NEAR(got, acc, 1e-4) << n << "," << co << "," << oh << "," << ow;
        }
      }
    }
  }
}

TEST_F(LayerTest, ConvolutionGradients) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 3;
  s.params.kernel_size = 3;
  s.params.pad = 1;
  s.params.stride = 2;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 2, 6, 6}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  GradientChecker checker(1e-2, 2e-2);
  checker.check(env, *layer, {&in}, {&out}, /*bottom=*/0);
  checker.check(env, *layer, {&in}, {&out}, 0, /*param=*/0);
  checker.check(env, *layer, {&in}, {&out}, 0, /*param=*/1);
}

TEST_F(LayerTest, ConvolutionWithoutBias) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 2;
  s.params.kernel_size = 1;
  s.params.bias_term = false;
  s.params.weight_filler = mc::FillerSpec::constant(1.0f);
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 3, 2, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&out});
  env.sync();
  // 1x1 conv with all-ones weights = channel sum.
  for (int i = 0; i < 4; ++i) {
    const float expect = in.data()[i] + in.data()[4 + i] + in.data()[8 + i];
    EXPECT_NEAR(out.data()[i], expect, 1e-5);
  }
}

TEST_F(LayerTest, GroupedConvolutionShapesAndIndependence) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 4;
  s.params.kernel_size = 1;
  s.params.group = 2;
  s.params.weight_filler = mc::FillerSpec::constant(1.0f);
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 4, 2, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  // Weights per group: [2 outputs x 2 input channels x 1 x 1].
  EXPECT_EQ(layer->param_blobs()[0]->shape(), (std::vector<int>{4, 2}));
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&out});
  env.sync();
  // Group 0 outputs depend only on channels 0-1, group 1 on channels 2-3.
  for (int i = 0; i < 4; ++i) {
    const float g0 = in.data()[0 * 4 + i] + in.data()[1 * 4 + i];
    const float g1 = in.data()[2 * 4 + i] + in.data()[3 * 4 + i];
    EXPECT_NEAR(out.data()[0 * 4 + i], g0, 1e-5);
    EXPECT_NEAR(out.data()[3 * 4 + i], g1, 1e-5);
  }
}

TEST_F(LayerTest, GroupedConvolutionGradients) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 4;
  s.params.kernel_size = 3;
  s.params.pad = 1;
  s.params.group = 2;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 4, 5, 5}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  GradientChecker checker(1e-2, 2e-2);
  checker.check(env, *layer, {&in}, {&out}, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 1);
}

TEST_F(LayerTest, FusedBiasMatchesUnfusedIncludingGroups) {
  // The fuse_conv_bias extension must be numerically identical to the
  // separate GEMM + bias path, for grouped and ungrouped convolutions.
  for (int group : {1, 2}) {
    auto run = [&](bool fused) {
      Env e;
      e.ec.fuse_conv_bias = fused;
      LayerSpec s = spec_of("Convolution");
      s.params.num_output = 4;
      s.params.kernel_size = 3;
      s.params.pad = 1;
      s.params.group = group;
      s.params.weight_filler = mc::FillerSpec::gaussian(0.2f);
      s.params.bias_filler = mc::FillerSpec::gaussian(0.5f);
      auto layer = mc::create_layer(s, e.ec);
      Blob in(e.ctx, {3, 4, 5, 5}), out(e.ctx);
      layer->setup({&in}, {&out});
      glp::Rng r(31);
      glptest::fill_random(in, r);
      layer->forward({&in}, {&out});
      e.ctx.device().synchronize();
      return glptest::snapshot(out.data(), out.count());
    };
    EXPECT_EQ(glptest::max_abs_diff(run(false), run(true)), 0.0)
        << "group " << group;
  }
}

TEST_F(LayerTest, GroupedConvolutionRejectsNonDivisibleGroups) {
  LayerSpec s = spec_of("Convolution");
  s.params.num_output = 4;
  s.params.kernel_size = 1;
  s.params.group = 3;  // does not divide 4 channels
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 4, 2, 2}), out(env.ctx);
  EXPECT_THROW(layer->setup({&in}, {&out}), glp::InvalidArgument);
}

TEST_F(LayerTest, ConvolutionRejectsBadParams) {
  LayerSpec s = spec_of("Convolution");
  auto layer = mc::create_layer(s, env.ec);  // num_output missing
  Blob in(env.ctx, {1, 1, 4, 4}), out(env.ctx);
  EXPECT_THROW(layer->setup({&in}, {&out}), glp::InvalidArgument);
}

// --- InnerProduct --------------------------------------------------------------------

TEST_F(LayerTest, InnerProductShapeAndForward) {
  LayerSpec s = spec_of("InnerProduct");
  s.params.num_output = 4;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {3, 2, 2, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 4}));
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&out});
  env.sync();
  // Reference: out[n,o] = Σ_k in[n,k] * W[o,k] + b[o]
  const float* w = layer->param_blobs()[0]->data();
  const float* b = layer->param_blobs()[1]->data();
  for (int n = 0; n < 3; ++n) {
    for (int o = 0; o < 4; ++o) {
      double acc = b[o];
      for (int k = 0; k < 8; ++k) acc += static_cast<double>(in.data()[n * 8 + k]) * w[o * 8 + k];
      ASSERT_NEAR(out.data()[n * 4 + o], acc, 1e-4);
    }
  }
}

TEST_F(LayerTest, InnerProductGradients) {
  LayerSpec s = spec_of("InnerProduct");
  s.params.num_output = 5;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {4, 6}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 1);
}

// --- Pooling --------------------------------------------------------------------------

TEST_F(LayerTest, MaxPoolingForward) {
  LayerSpec s = spec_of("Pooling");
  s.params.pool = mc::PoolMethod::kMax;
  s.params.kernel_size = 2;
  s.params.stride = 2;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 1, 4, 4}), out(env.ctx);
  layer->setup({&in}, {&out});
  float v = 0;
  for (std::size_t i = 0; i < 16; ++i) in.mutable_data()[i] = v += 1.0f;
  layer->forward({&in}, {&out});
  env.sync();
  EXPECT_EQ(out.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.data()[0], 6.0f);
  EXPECT_FLOAT_EQ(out.data()[3], 16.0f);
}

TEST_F(LayerTest, PoolingCeilModeMatchesCaffe) {
  // Caffe pools with ceil: 32 → pool3/s2 → 16 (not 15).
  LayerSpec s = spec_of("Pooling");
  s.params.kernel_size = 3;
  s.params.stride = 2;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 1, 32, 32}), out(env.ctx);
  layer->setup({&in}, {&out});
  EXPECT_EQ(out.height(), 16);
}

TEST_F(LayerTest, MaxPoolingGradients) {
  LayerSpec s = spec_of("Pooling");
  s.params.pool = mc::PoolMethod::kMax;
  s.params.kernel_size = 3;
  s.params.stride = 2;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 2, 7, 7}), out(env.ctx);
  layer->setup({&in}, {&out});
  // Well-separated values: the numeric perturbation must never flip an
  // argmax (the max operator is not differentiable at ties).
  std::vector<int> perm(in.count());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < in.count(); ++i) {
    in.mutable_data()[i] = 0.1f * static_cast<float>(perm[i]);
  }
  GradientChecker checker(1e-3, 2e-2);
  checker.check(env, *layer, {&in}, {&out}, 0);
}

TEST_F(LayerTest, AvePoolingGradients) {
  LayerSpec s = spec_of("Pooling");
  s.params.pool = mc::PoolMethod::kAve;
  s.params.kernel_size = 3;
  s.params.stride = 2;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 2, 8, 8}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

// --- activations -----------------------------------------------------------------------

TEST_F(LayerTest, ReLUForwardInPlace) {
  LayerSpec s = spec_of("ReLU");
  s.tops = {"in"};  // in place
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {8});
  layer->setup({&in}, {&in});
  for (int i = 0; i < 8; ++i) in.mutable_data()[i] = static_cast<float>(i - 4);
  layer->forward({&in}, {&in});
  env.sync();
  EXPECT_FLOAT_EQ(in.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(in.data()[7], 3.0f);
}

TEST_F(LayerTest, ReLUGradients) {
  auto layer = mc::create_layer(spec_of("ReLU"), env.ec);
  Blob in(env.ctx, {4, 8}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  // Keep inputs away from the kink for numeric stability.
  for (std::size_t i = 0; i < in.count(); ++i) {
    if (std::abs(in.data()[i]) < 0.1f) in.mutable_data()[i] += 0.25f;
  }
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

TEST_F(LayerTest, LeakyReLUGradients) {
  LayerSpec s = spec_of("ReLU");
  s.params.negative_slope = 0.1f;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {4, 8}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  for (std::size_t i = 0; i < in.count(); ++i) {
    if (std::abs(in.data()[i]) < 0.1f) in.mutable_data()[i] += 0.25f;
  }
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

TEST_F(LayerTest, SigmoidGradients) {
  auto layer = mc::create_layer(spec_of("Sigmoid"), env.ec);
  Blob in(env.ctx, {3, 7}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, -2.0f, 2.0f);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

TEST_F(LayerTest, TanHGradients) {
  auto layer = mc::create_layer(spec_of("TanH"), env.ec);
  Blob in(env.ctx, {3, 7}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, -2.0f, 2.0f);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

// --- LRN -------------------------------------------------------------------------------

TEST_F(LayerTest, LRNGradients) {
  LayerSpec s = spec_of("LRN");
  s.params.local_size = 3;
  s.params.alpha = 0.5f;
  s.params.beta = 0.75f;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 5, 3, 3}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, 0.1f, 1.0f);
  GradientChecker checker(1e-2, 3e-2);
  checker.check(env, *layer, {&in}, {&out}, 0);
}

TEST_F(LayerTest, LRNRejectsInPlaceAndEvenWindow) {
  LayerSpec s = spec_of("LRN");
  s.params.local_size = 4;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 4, 2, 2}), out(env.ctx);
  EXPECT_THROW(layer->setup({&in}, {&out}), glp::InvalidArgument);
}

// --- Dropout ----------------------------------------------------------------------------

TEST_F(LayerTest, DropoutZeroesFractionAndScales) {
  LayerSpec s = spec_of("Dropout");
  s.params.dropout_ratio = 0.5f;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 10000}), out(env.ctx);
  layer->setup({&in}, {&out});
  for (std::size_t i = 0; i < in.count(); ++i) in.mutable_data()[i] = 1.0f;
  layer->forward({&in}, {&out});
  env.sync();
  int zeros = 0;
  for (std::size_t i = 0; i < out.count(); ++i) {
    if (out.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(out.data()[i], 2.0f);  // 1/(1-0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.05);
}

TEST_F(LayerTest, DropoutBackwardUsesSameMask) {
  LayerSpec s = spec_of("Dropout");
  s.params.dropout_ratio = 0.3f;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 256}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&out});
  env.sync();
  for (std::size_t i = 0; i < out.count(); ++i) out.mutable_diff()[i] = 1.0f;
  layer->backward({&out}, {true}, {&in});
  env.sync();
  // Gradient zero exactly where the forward output is zero.
  for (std::size_t i = 0; i < in.count(); ++i) {
    if (out.data()[i] == 0.0f) {
      EXPECT_EQ(in.diff()[i], 0.0f);
    } else {
      EXPECT_NEAR(in.diff()[i], 1.0f / 0.7f, 1e-5);
    }
  }
}

TEST_F(LayerTest, DropoutTestModeIsIdentity) {
  LayerSpec s = spec_of("Dropout");
  auto layer = mc::create_layer(s, env.ec);
  auto* dropout = dynamic_cast<mc::DropoutLayer*>(layer.get());
  ASSERT_NE(dropout, nullptr);
  dropout->set_train(false);
  Blob in(env.ctx, {1, 64}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&out});
  env.sync();
  for (std::size_t i = 0; i < in.count(); ++i) {
    EXPECT_EQ(out.data()[i], in.data()[i]);
  }
}

// --- Concat ------------------------------------------------------------------------------

TEST_F(LayerTest, ConcatForwardAndBackward) {
  LayerSpec s = spec_of("Concat");
  s.bottoms = {"a", "b"};
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {2, 2, 2, 2}), b(env.ctx, {2, 3, 2, 2}), out(env.ctx);
  layer->setup({&a, &b}, {&out});
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 5, 2, 2}));
  glptest::fill_random(a, rng);
  glptest::fill_random(b, rng);
  layer->forward({&a, &b}, {&out});
  env.sync();
  // Sample 1, channel 3 of out == channel 1 of b.
  EXPECT_EQ(out.data()[(1 * 5 + 3) * 4 + 2], b.data()[(1 * 3 + 1) * 4 + 2]);

  for (std::size_t i = 0; i < out.count(); ++i) {
    out.mutable_diff()[i] = static_cast<float>(i);
  }
  std::fill(a.mutable_diff(), a.mutable_diff() + a.count(), 0.0f);
  std::fill(b.mutable_diff(), b.mutable_diff() + b.count(), 0.0f);
  layer->backward({&out}, {true, true}, {&a, &b});
  env.sync();
  EXPECT_EQ(a.diff()[0], out.diff()[0]);
  EXPECT_EQ(b.diff()[0], out.diff()[2 * 4]);  // first b-channel follows a's two
}

TEST_F(LayerTest, ConcatRejectsMismatchedSpatial) {
  LayerSpec s = spec_of("Concat");
  s.bottoms = {"a", "b"};
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {1, 2, 4, 4}), b(env.ctx, {1, 2, 5, 5}), out(env.ctx);
  EXPECT_THROW(layer->setup({&a, &b}, {&out}), glp::InvalidArgument);
}

// --- losses -------------------------------------------------------------------------------

TEST_F(LayerTest, SoftmaxWithLossForwardValue) {
  LayerSpec s = spec_of("SoftmaxWithLoss");
  s.bottoms = {"scores", "labels"};
  s.tops = {"loss"};
  auto layer = mc::create_layer(s, env.ec);
  Blob scores(env.ctx, {2, 3}), labels(env.ctx, {2}), loss(env.ctx);
  layer->setup({&scores, &labels}, {&loss});
  // Uniform scores → loss = log(3).
  std::fill(scores.mutable_data(), scores.mutable_data() + 6, 0.0f);
  labels.mutable_data()[0] = 0;
  labels.mutable_data()[1] = 2;
  layer->forward({&scores, &labels}, {&loss});
  env.sync();
  EXPECT_NEAR(loss.data()[0], std::log(3.0f), 1e-5);
}

TEST_F(LayerTest, SoftmaxWithLossGradient) {
  LayerSpec s = spec_of("SoftmaxWithLoss");
  s.bottoms = {"scores", "labels"};
  s.tops = {"loss"};
  auto layer = mc::create_layer(s, env.ec);
  Blob scores(env.ctx, {4, 5}), labels(env.ctx, {4}), loss(env.ctx);
  layer->setup({&scores, &labels}, {&loss});
  glptest::fill_random(scores, rng);
  for (int n = 0; n < 4; ++n) labels.mutable_data()[n] = static_cast<float>(n % 5);

  // Numeric dLoss/dscore via central differences.
  layer->forward({&scores, &labels}, {&loss});
  env.sync();
  std::fill(scores.mutable_diff(), scores.mutable_diff() + scores.count(), 0.0f);
  layer->backward({&loss}, {true, false}, {&scores, &labels});
  env.sync();
  const auto analytic = glptest::snapshot(scores.diff(), scores.count());
  const double eps = 1e-2;
  for (std::size_t i = 0; i < scores.count(); i += 3) {
    const float saved = scores.data()[i];
    scores.mutable_data()[i] = saved + static_cast<float>(eps);
    layer->forward({&scores, &labels}, {&loss});
    env.sync();
    const double plus = loss.data()[0];
    scores.mutable_data()[i] = saved - static_cast<float>(eps);
    layer->forward({&scores, &labels}, {&loss});
    env.sync();
    const double minus = loss.data()[0];
    scores.mutable_data()[i] = saved;
    EXPECT_NEAR(analytic[i], (plus - minus) / (2 * eps), 2e-3);
  }
}

TEST_F(LayerTest, AccuracyLayer) {
  LayerSpec s = spec_of("Accuracy");
  s.bottoms = {"scores", "labels"};
  s.tops = {"acc"};
  auto layer = mc::create_layer(s, env.ec);
  Blob scores(env.ctx, {4, 2}), labels(env.ctx, {4}), acc(env.ctx);
  layer->setup({&scores, &labels}, {&acc});
  const float sc[] = {1, 0, 0, 1, 1, 0, 0, 1};
  std::copy(sc, sc + 8, scores.mutable_data());
  const float lb[] = {0, 1, 1, 1};
  std::copy(lb, lb + 4, labels.mutable_data());
  layer->forward({&scores, &labels}, {&acc});
  env.sync();
  EXPECT_FLOAT_EQ(acc.data()[0], 0.75f);
  EXPECT_FALSE(layer->has_backward());
}

TEST_F(LayerTest, EuclideanLossValueAndGradient) {
  LayerSpec s = spec_of("EuclideanLoss");
  s.bottoms = {"a", "b"};
  s.tops = {"loss"};
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {2, 3}), b(env.ctx, {2, 3}), loss(env.ctx);
  layer->setup({&a, &b}, {&loss});
  for (int i = 0; i < 6; ++i) {
    a.mutable_data()[i] = static_cast<float>(i);
    b.mutable_data()[i] = static_cast<float>(i) + 1.0f;  // diff = -1 everywhere
  }
  layer->forward({&a, &b}, {&loss});
  env.sync();
  EXPECT_NEAR(loss.data()[0], 6.0f / (2.0f * 2.0f), 1e-5);
  layer->backward({&loss}, {true, true}, {&a, &b});
  env.sync();
  EXPECT_NEAR(a.diff()[0], -0.5f, 1e-6);
  EXPECT_NEAR(b.diff()[0], 0.5f, 1e-6);
}

TEST_F(LayerTest, ContrastiveLossSimilarAndDissimilar) {
  LayerSpec s = spec_of("ContrastiveLoss");
  s.bottoms = {"a", "b", "sim"};
  s.tops = {"loss"};
  s.params.margin = 1.0f;
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {2, 2}), b(env.ctx, {2, 2}), sim(env.ctx, {2}), loss(env.ctx);
  layer->setup({&a, &b, &sim}, {&loss});
  // Pair 0 similar at distance² = 0.25; pair 1 dissimilar at distance² = 0.25.
  const float av[] = {0.5f, 0, 0.5f, 0};
  const float bv[] = {0, 0, 0, 0};
  std::copy(av, av + 4, a.mutable_data());
  std::copy(bv, bv + 4, b.mutable_data());
  sim.mutable_data()[0] = 1;
  sim.mutable_data()[1] = 0;
  layer->forward({&a, &b, &sim}, {&loss});
  env.sync();
  // L = 1/(2·2) [0.25 + max(1 − 0.25, 0)] = 0.25.
  EXPECT_NEAR(loss.data()[0], 0.25f, 1e-5);

  layer->backward({&loss}, {true, true, false}, {&a, &b, &sim});
  env.sync();
  // Similar pair pulls together: da = +scale·diff.
  EXPECT_GT(a.diff()[0], 0.0f);
  // Dissimilar pair inside the margin pushes apart: da = −scale·diff.
  EXPECT_LT(a.diff()[2], 0.0f);
}

TEST_F(LayerTest, ContrastiveLossZeroGradientOutsideMargin) {
  LayerSpec s = spec_of("ContrastiveLoss");
  s.bottoms = {"a", "b", "sim"};
  s.tops = {"loss"};
  s.params.margin = 0.1f;
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {1, 2}), b(env.ctx, {1, 2}), sim(env.ctx, {1}), loss(env.ctx);
  layer->setup({&a, &b, &sim}, {&loss});
  a.mutable_data()[0] = 5.0f;  // far apart, dissimilar → no gradient
  a.mutable_data()[1] = 0.0f;
  b.mutable_data()[0] = 0.0f;
  b.mutable_data()[1] = 0.0f;
  sim.mutable_data()[0] = 0;
  layer->forward({&a, &b, &sim}, {&loss});
  layer->backward({&loss}, {true, true, false}, {&a, &b, &sim});
  env.sync();
  EXPECT_EQ(a.diff()[0], 0.0f);
  EXPECT_EQ(loss.data()[0], 0.0f);
}

TEST_F(LayerTest, SigmoidCrossEntropyLossValue) {
  LayerSpec s = spec_of("SigmoidCrossEntropyLoss");
  s.bottoms = {"logits", "targets"};
  s.tops = {"loss"};
  auto layer = mc::create_layer(s, env.ec);
  Blob logits(env.ctx, {2, 2}), targets(env.ctx, {2, 2}), loss(env.ctx);
  layer->setup({&logits, &targets}, {&loss});
  // Zero logits: p = 0.5 everywhere → loss = 4·log(2)/2 per Caffe's
  // per-sample normalisation.
  std::fill(logits.mutable_data(), logits.mutable_data() + 4, 0.0f);
  std::fill(targets.mutable_data(), targets.mutable_data() + 4, 1.0f);
  layer->forward({&logits, &targets}, {&loss});
  env.sync();
  EXPECT_NEAR(loss.data()[0], 4.0f * std::log(2.0f) / 2.0f, 1e-5);
}

TEST_F(LayerTest, SigmoidCrossEntropyLossGradient) {
  LayerSpec s = spec_of("SigmoidCrossEntropyLoss");
  s.bottoms = {"logits", "targets"};
  s.tops = {"loss"};
  auto layer = mc::create_layer(s, env.ec);
  Blob logits(env.ctx, {3, 4}), targets(env.ctx, {3, 4}), loss(env.ctx);
  layer->setup({&logits, &targets}, {&loss});
  glptest::fill_random(logits, rng, -2.0f, 2.0f);
  glptest::fill_random(targets, rng, 0.0f, 1.0f);

  layer->forward({&logits, &targets}, {&loss});
  env.sync();
  std::fill(logits.mutable_diff(), logits.mutable_diff() + logits.count(), 0.0f);
  layer->backward({&loss}, {true, false}, {&logits, &targets});
  env.sync();
  const auto analytic = glptest::snapshot(logits.diff(), logits.count());

  const double eps = 1e-2;
  for (std::size_t i = 0; i < logits.count(); i += 2) {
    const float saved = logits.data()[i];
    logits.mutable_data()[i] = saved + static_cast<float>(eps);
    layer->forward({&logits, &targets}, {&loss});
    env.sync();
    const double plus = loss.data()[0];
    logits.mutable_data()[i] = saved - static_cast<float>(eps);
    layer->forward({&logits, &targets}, {&loss});
    env.sync();
    const double minus = loss.data()[0];
    logits.mutable_data()[i] = saved;
    EXPECT_NEAR(analytic[i], (plus - minus) / (2 * eps), 2e-3);
  }
}

TEST_F(LayerTest, SigmoidCrossEntropyStableAtExtremeLogits) {
  LayerSpec s = spec_of("SigmoidCrossEntropyLoss");
  s.bottoms = {"logits", "targets"};
  s.tops = {"loss"};
  auto layer = mc::create_layer(s, env.ec);
  Blob logits(env.ctx, {1, 2}), targets(env.ctx, {1, 2}), loss(env.ctx);
  layer->setup({&logits, &targets}, {&loss});
  logits.mutable_data()[0] = 80.0f;   // exp(80) would overflow naively
  logits.mutable_data()[1] = -80.0f;
  targets.mutable_data()[0] = 1.0f;
  targets.mutable_data()[1] = 0.0f;
  layer->forward({&logits, &targets}, {&loss});
  env.sync();
  EXPECT_TRUE(std::isfinite(loss.data()[0]));
  EXPECT_NEAR(loss.data()[0], 0.0f, 1e-5);  // both predictions correct
}

// --- factory -----------------------------------------------------------------------------

TEST_F(LayerTest, FactoryRejectsUnknownType) {
  EXPECT_THROW(mc::create_layer(spec_of("Convolution3D"), env.ec),
               glp::InvalidArgument);
}

TEST_F(LayerTest, RegistryContainsAllPaperLayers) {
  const auto types = mc::registered_layer_types();
  const std::set<std::string> set(types.begin(), types.end());
  for (const char* t :
       {"Data", "Convolution", "InnerProduct", "Pooling", "LRN", "ReLU",
        "Sigmoid", "TanH", "Dropout", "Concat", "SoftmaxWithLoss", "Accuracy",
        "EuclideanLoss", "ContrastiveLoss"}) {
    EXPECT_TRUE(set.count(t)) << t;
  }
}

// --- Data / Input: timing-only uploads -----------------------------------------
//
// Timing-only forwards issue the numeric forward's copies (bytes, stream,
// simulated span) with no staging and no dataset behind them. Each mode
// runs on a fresh device, so equal records mean the copies are the same
// ops.

/// A timing-only DataLayer never builds its dataset; a numeric one builds
/// the dataset its fixed seed makes.
void expect_dataset(const mc::DataLayer& data, kern::ComputeMode mode) {
  if (mode == kern::ComputeMode::kTimingOnly) {
    EXPECT_EQ(data.dataset(), nullptr);
    return;
  }
  ASSERT_NE(data.dataset(), nullptr);
  const mc::DatasetSpec& spec = data.spec().params.dataset;
  const mc::SyntheticDataset fresh(spec, 0xDA7A5E7);
  std::vector<float> got(spec.sample_size()), want(spec.sample_size());
  for (const std::uint64_t index : {0ULL, 1ULL, 4321ULL}) {
    data.dataset()->fill_sample(index, got.data());
    fresh.fill_sample(index, want.data());
    EXPECT_EQ(got, want) << "sample " << index;
  }
}

std::vector<gpusim::CopyRecord> upload_records(kern::ComputeMode mode,
                                               const LayerSpec& spec,
                                               std::size_t tops,
                                               std::size_t* staging_bytes) {
  Env env(gpusim::DeviceTable::p100(), mode);
  env.ctx.device().timeline().set_enabled(true);
  const gpusim::StreamId home = env.ctx.device().create_stream();
  env.ec.home_stream = home;
  auto layer = mc::create_layer(spec, env.ec);
  std::vector<std::unique_ptr<Blob>> blobs;
  std::vector<Blob*> top;
  for (std::size_t i = 0; i < tops; ++i) {
    blobs.push_back(std::make_unique<Blob>(env.ctx));
    top.push_back(blobs.back().get());
  }
  layer->setup({}, top);
  for (int iter = 0; iter < 3; ++iter) {
    if (auto* in = dynamic_cast<mc::InputLayer*>(layer.get());
        in != nullptr && mode == kern::ComputeMode::kNumeric) {
      std::fill_n(in->staging(), in->batch() * in->sample_size(), 0.5f);
    }
    layer->forward({}, top);
  }
  env.sync();
  if (auto* data = dynamic_cast<mc::DataLayer*>(layer.get())) {
    *staging_bytes = data->staging_bytes();
    expect_dataset(*data, mode);
  } else {
    *staging_bytes = dynamic_cast<mc::InputLayer*>(layer.get())->staging_count() *
                     sizeof(float);
  }
  for (const gpusim::CopyRecord& rec : env.ctx.device().timeline().copies()) {
    EXPECT_EQ(rec.stream, home);
  }
  return env.ctx.device().timeline().copies();
}

void expect_same_uploads(const LayerSpec& spec, std::size_t tops,
                         std::size_t copies_per_forward,
                         std::size_t numeric_staging_bytes) {
  std::size_t timing_staging = 0, numeric_staging = 0;
  const auto timing =
      upload_records(kern::ComputeMode::kTimingOnly, spec, tops, &timing_staging);
  const auto numeric =
      upload_records(kern::ComputeMode::kNumeric, spec, tops, &numeric_staging);
  EXPECT_EQ(timing_staging, 0u);
  EXPECT_EQ(numeric_staging, numeric_staging_bytes);
  ASSERT_EQ(timing.size(), 3 * copies_per_forward);
  ASSERT_EQ(numeric.size(), timing.size());
  for (std::size_t i = 0; i < timing.size(); ++i) {
    EXPECT_EQ(timing[i].bytes, numeric[i].bytes) << "copy " << i;
    EXPECT_EQ(timing[i].stream, numeric[i].stream) << "copy " << i;
    EXPECT_TRUE(timing[i].host_to_device) << "copy " << i;
    EXPECT_EQ(timing[i].start_ns, numeric[i].start_ns) << "copy " << i;
    EXPECT_EQ(timing[i].end_ns, numeric[i].end_ns) << "copy " << i;
  }
}

LayerSpec data_spec(bool pair) {
  LayerSpec s;
  s.type = "Data";
  s.name = "data";
  s.tops = pair ? std::vector<std::string>{"data", "data_p", "sim"}
                : std::vector<std::string>{"data", "label"};
  s.params.batch_size = 8;
  s.params.pair_data = pair;
  s.params.dataset = pair ? mc::DatasetSpec::mnist() : mc::DatasetSpec::cifar10();
  return s;
}

TEST(TimingOnlyUploads, DataLayerHoldsNoStagingAndIssuesTheSameCopies) {
  const LayerSpec plain = data_spec(false);
  const std::size_t images = 8 * plain.params.dataset.sample_size();
  expect_same_uploads(plain, 2, 2, (images + 8) * sizeof(float));
}

TEST(TimingOnlyUploads, PairDataLayerHoldsNoStagingAndIssuesTheSameCopies) {
  const LayerSpec pair = data_spec(true);
  const std::size_t images = 8 * pair.params.dataset.sample_size();
  expect_same_uploads(pair, 3, 3, (2 * images + 8) * sizeof(float));
}

TEST(TimingOnlyUploads, InputLayerHoldsNoStagingAndIssuesTheSameCopy) {
  LayerSpec s;
  s.type = "Input";
  s.name = "input";
  s.tops = {"data"};
  s.params.batch_size = 4;
  s.params.dataset = mc::DatasetSpec::cifar10();
  expect_same_uploads(s, 1, 1, 4 * s.params.dataset.sample_size() * sizeof(float));
}

}  // namespace
