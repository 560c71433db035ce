// Tests for the extended layer zoo: Softmax, Eltwise, Power, AbsVal, Exp,
// PReLU, Slice, Flatten, Scale, BatchNorm, ArgMax, Reduction.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "kernels/cpu_math.hpp"
#include "minicaffe/layer.hpp"
#include "minicaffe/layers/structure_layers.hpp"
#include "minicaffe/net_parser.hpp"
#include "test_helpers.hpp"

namespace {

using glptest::Env;
using glptest::GradientChecker;
using mc::Blob;
using mc::LayerSpec;

LayerSpec spec_of(std::string type, std::vector<std::string> bottoms = {"in"},
                  std::vector<std::string> tops = {"out"}) {
  LayerSpec s;
  s.type = std::move(type);
  s.name = "test";
  s.bottoms = std::move(bottoms);
  s.tops = std::move(tops);
  return s;
}

struct ExtLayerTest : ::testing::Test {
  Env env;
  glp::Rng rng{77};
};

// --- Softmax -----------------------------------------------------------------

TEST_F(ExtLayerTest, SoftmaxForwardRowsSumToOne) {
  auto layer = mc::create_layer(spec_of("Softmax"), env.ec);
  Blob in(env.ctx, {3, 6}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, -3, 3);
  layer->forward({&in}, {&out});
  env.sync();
  for (int r = 0; r < 3; ++r) {
    double s = 0;
    for (int j = 0; j < 6; ++j) s += out.data()[r * 6 + j];
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST_F(ExtLayerTest, SoftmaxGradients) {
  auto layer = mc::create_layer(spec_of("Softmax"), env.ec);
  Blob in(env.ctx, {3, 5}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, -1, 1);
  GradientChecker checker(1e-2, 2e-2);
  checker.check(env, *layer, {&in}, {&out}, 0);
}

// --- Eltwise -----------------------------------------------------------------

TEST_F(ExtLayerTest, EltwiseSumWithCoefficients) {
  LayerSpec s = spec_of("Eltwise", {"a", "b"});
  s.params.eltwise = mc::EltwiseOp::kSum;
  s.params.eltwise_coeffs = {2.0f, -1.0f};
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {2, 3}), b(env.ctx, {2, 3}), out(env.ctx);
  layer->setup({&a, &b}, {&out});
  for (int i = 0; i < 6; ++i) {
    a.mutable_data()[i] = static_cast<float>(i);
    b.mutable_data()[i] = 1.0f;
  }
  layer->forward({&a, &b}, {&out});
  env.sync();
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(out.data()[i], 2.0f * i - 1.0f);
}

TEST_F(ExtLayerTest, EltwiseSumGradients) {
  LayerSpec s = spec_of("Eltwise", {"a", "b"});
  s.params.eltwise_coeffs = {0.5f, 2.0f};
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {2, 4}), b(env.ctx, {2, 4}), out(env.ctx);
  layer->setup({&a, &b}, {&out});
  glptest::fill_random(a, rng);
  glptest::fill_random(b, rng);
  GradientChecker checker;
  checker.check(env, *layer, {&a, &b}, {&out}, 0);
  checker.check(env, *layer, {&a, &b}, {&out}, 1);
}

TEST_F(ExtLayerTest, EltwiseProdGradients) {
  LayerSpec s = spec_of("Eltwise", {"a", "b", "c"});
  s.params.eltwise = mc::EltwiseOp::kProd;
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {2, 3}), b(env.ctx, {2, 3}), c(env.ctx, {2, 3}), out(env.ctx);
  layer->setup({&a, &b, &c}, {&out});
  glptest::fill_random(a, rng, 0.5f, 1.5f);
  glptest::fill_random(b, rng, 0.5f, 1.5f);
  glptest::fill_random(c, rng, 0.5f, 1.5f);
  GradientChecker checker;
  checker.check(env, *layer, {&a, &b, &c}, {&out}, 1);
}

TEST_F(ExtLayerTest, EltwiseMaxRoutesGradientToWinner) {
  LayerSpec s = spec_of("Eltwise", {"a", "b"});
  s.params.eltwise = mc::EltwiseOp::kMax;
  auto layer = mc::create_layer(s, env.ec);
  Blob a(env.ctx, {1, 2}), b(env.ctx, {1, 2}), out(env.ctx);
  layer->setup({&a, &b}, {&out});
  a.mutable_data()[0] = 5.0f;
  a.mutable_data()[1] = 0.0f;
  b.mutable_data()[0] = 1.0f;
  b.mutable_data()[1] = 9.0f;
  layer->forward({&a, &b}, {&out});
  env.sync();
  EXPECT_FLOAT_EQ(out.data()[0], 5.0f);
  EXPECT_FLOAT_EQ(out.data()[1], 9.0f);

  out.mutable_diff()[0] = 1.0f;
  out.mutable_diff()[1] = 1.0f;
  std::fill(a.mutable_diff(), a.mutable_diff() + 2, 0.0f);
  std::fill(b.mutable_diff(), b.mutable_diff() + 2, 0.0f);
  layer->backward({&out}, {true, true}, {&a, &b});
  env.sync();
  EXPECT_FLOAT_EQ(a.diff()[0], 1.0f);
  EXPECT_FLOAT_EQ(a.diff()[1], 0.0f);
  EXPECT_FLOAT_EQ(b.diff()[1], 1.0f);
}

TEST_F(ExtLayerTest, EltwiseRejectsMismatchedCounts) {
  auto layer = mc::create_layer(spec_of("Eltwise", {"a", "b"}), env.ec);
  Blob a(env.ctx, {2, 3}), b(env.ctx, {2, 4}), out(env.ctx);
  EXPECT_THROW(layer->setup({&a, &b}, {&out}), glp::InvalidArgument);
}

// --- Power / AbsVal / Exp -------------------------------------------------------

TEST_F(ExtLayerTest, PowerForwardAndGradients) {
  LayerSpec s = spec_of("Power");
  s.params.power = 2.0f;
  s.params.power_scale = 3.0f;
  s.params.power_shift = 1.0f;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 4}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, 0.1f, 1.0f);
  layer->forward({&in}, {&out});
  env.sync();
  for (std::size_t i = 0; i < in.count(); ++i) {
    const float v = 1.0f + 3.0f * in.data()[i];
    EXPECT_NEAR(out.data()[i], v * v, 1e-4);
  }
  GradientChecker checker(1e-3, 2e-2);
  checker.check(env, *layer, {&in}, {&out}, 0);
}

TEST_F(ExtLayerTest, AbsValGradients) {
  auto layer = mc::create_layer(spec_of("AbsVal"), env.ec);
  Blob in(env.ctx, {3, 5}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  // Keep away from the kink at zero.
  for (std::size_t i = 0; i < in.count(); ++i) {
    if (std::abs(in.data()[i]) < 0.1f) in.mutable_data()[i] += 0.3f;
  }
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

TEST_F(ExtLayerTest, ExpGradients) {
  auto layer = mc::create_layer(spec_of("Exp"), env.ec);
  Blob in(env.ctx, {2, 6}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, -1.0f, 1.0f);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

// --- PReLU -----------------------------------------------------------------------

TEST_F(ExtLayerTest, PReLUForwardUsesPerChannelSlopes) {
  auto layer = mc::create_layer(spec_of("PReLU"), env.ec);
  Blob in(env.ctx, {1, 2, 1, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  layer->param_blobs()[0]->mutable_data()[0] = 0.1f;
  layer->param_blobs()[0]->mutable_data()[1] = 0.5f;
  const float vals[] = {-1.0f, 2.0f, -4.0f, 3.0f};
  std::copy(vals, vals + 4, in.mutable_data());
  layer->forward({&in}, {&out});
  env.sync();
  EXPECT_FLOAT_EQ(out.data()[0], -0.1f);
  EXPECT_FLOAT_EQ(out.data()[1], 2.0f);
  EXPECT_FLOAT_EQ(out.data()[2], -2.0f);
  EXPECT_FLOAT_EQ(out.data()[3], 3.0f);
}

TEST_F(ExtLayerTest, PReLUGradients) {
  auto layer = mc::create_layer(spec_of("PReLU"), env.ec);
  Blob in(env.ctx, {2, 3, 2, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  for (std::size_t i = 0; i < in.count(); ++i) {
    if (std::abs(in.data()[i]) < 0.1f) in.mutable_data()[i] += 0.3f;
  }
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, /*param=*/0);
}

// --- Slice / Flatten ---------------------------------------------------------------

TEST_F(ExtLayerTest, SliceSplitsChannelsAtPoints) {
  LayerSpec s = spec_of("Slice", {"in"}, {"t0", "t1", "t2"});
  s.params.slice_points = {1, 3};
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 5, 2, 2}), t0(env.ctx), t1(env.ctx), t2(env.ctx);
  layer->setup({&in}, {&t0, &t1, &t2});
  EXPECT_EQ(t0.channels(), 1);
  EXPECT_EQ(t1.channels(), 2);
  EXPECT_EQ(t2.channels(), 2);
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&t0, &t1, &t2});
  env.sync();
  // t1 sample 1, channel 0 == in sample 1, channel 1.
  EXPECT_EQ(t1.data()[(1 * 2 + 0) * 4 + 3], in.data()[(1 * 5 + 1) * 4 + 3]);
}

TEST_F(ExtLayerTest, SliceEqualPartsAndRoundTripWithBackward) {
  LayerSpec s = spec_of("Slice", {"in"}, {"t0", "t1"});
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 4, 3, 3}), t0(env.ctx), t1(env.ctx);
  layer->setup({&in}, {&t0, &t1});
  glptest::fill_random(in, rng);
  layer->forward({&in}, {&t0, &t1});
  env.sync();
  // Backward of all-ones top diffs → all-ones bottom diff.
  std::fill(t0.mutable_diff(), t0.mutable_diff() + t0.count(), 1.0f);
  std::fill(t1.mutable_diff(), t1.mutable_diff() + t1.count(), 1.0f);
  std::fill(in.mutable_diff(), in.mutable_diff() + in.count(), 0.0f);
  layer->backward({&t0, &t1}, {true}, {&in});
  env.sync();
  for (std::size_t i = 0; i < in.count(); ++i) {
    ASSERT_EQ(in.diff()[i], 1.0f);
  }
}

TEST_F(ExtLayerTest, SliceRejectsBadPoints) {
  LayerSpec s = spec_of("Slice", {"in"}, {"t0", "t1"});
  s.params.slice_points = {7};  // outside 4 channels
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 4, 2, 2}), t0(env.ctx), t1(env.ctx);
  EXPECT_THROW(layer->setup({&in}, {&t0, &t1}), glp::InvalidArgument);
}

TEST_F(ExtLayerTest, FlattenShapesAndGradients) {
  auto layer = mc::create_layer(spec_of("Flatten"), env.ec);
  Blob in(env.ctx, {3, 2, 4, 4}), out(env.ctx);
  layer->setup({&in}, {&out});
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 32}));
  glptest::fill_random(in, rng);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0, -1, 16);
}

// --- Scale / BatchNorm ----------------------------------------------------------------

TEST_F(ExtLayerTest, ScaleForward) {
  LayerSpec s = spec_of("Scale");
  s.params.scale_bias_term = true;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {1, 2, 1, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  ASSERT_EQ(layer->param_blobs().size(), 2u);
  layer->param_blobs()[0]->mutable_data()[0] = 2.0f;
  layer->param_blobs()[0]->mutable_data()[1] = -1.0f;
  layer->param_blobs()[1]->mutable_data()[0] = 0.5f;
  layer->param_blobs()[1]->mutable_data()[1] = 0.0f;
  const float vals[] = {1, 2, 3, 4};
  std::copy(vals, vals + 4, in.mutable_data());
  layer->forward({&in}, {&out});
  env.sync();
  EXPECT_FLOAT_EQ(out.data()[0], 2.5f);
  EXPECT_FLOAT_EQ(out.data()[1], 4.5f);
  EXPECT_FLOAT_EQ(out.data()[2], -3.0f);
  EXPECT_FLOAT_EQ(out.data()[3], -4.0f);
}

TEST_F(ExtLayerTest, ScaleGradients) {
  LayerSpec s = spec_of("Scale");
  s.params.scale_bias_term = true;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 3, 2, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 1);
}

TEST_F(ExtLayerTest, BatchNormNormalisesChannels) {
  auto layer = mc::create_layer(spec_of("BatchNorm"), env.ec);
  Blob in(env.ctx, {4, 2, 3, 3}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, -2, 5);
  layer->forward({&in}, {&out});
  env.sync();
  // Per channel: mean ≈ 0, variance ≈ 1 over (N, H, W).
  const int spatial = 9, num = 4, channels = 2;
  for (int c = 0; c < channels; ++c) {
    double sum = 0, sq = 0;
    for (int n = 0; n < num; ++n) {
      for (int i = 0; i < spatial; ++i) {
        const float v = out.data()[(n * channels + c) * spatial + i];
        sum += v;
        sq += v * v;
      }
    }
    const double m = sum / (num * spatial);
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(sq / (num * spatial) - m * m, 1.0, 1e-2);
  }
}

TEST_F(ExtLayerTest, BatchNormGradients) {
  auto layer = mc::create_layer(spec_of("BatchNorm"), env.ec);
  Blob in(env.ctx, {3, 2, 2, 2}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, -1, 1);
  GradientChecker checker(1e-2, 3e-2);
  checker.check(env, *layer, {&in}, {&out}, 0, -1, 24);
}

TEST_F(ExtLayerTest, BatchNormGlobalStatsUseMovingAverages) {
  LayerSpec s = spec_of("BatchNorm");
  auto train_layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {4, 2, 2, 2}), out(env.ctx);
  train_layer->setup({&in}, {&out});
  glptest::fill_random(in, rng, 1.0f, 3.0f);
  // A few training passes accumulate moving statistics.
  for (int i = 0; i < 3; ++i) {
    train_layer->forward({&in}, {&out});
    env.sync();
  }
  // Inference layer sharing the same stats blobs.
  LayerSpec g = s;
  g.params.use_global_stats = true;
  auto infer_layer = mc::create_layer(g, env.ec);
  Blob out2(env.ctx);
  infer_layer->setup({&in}, {&out2});
  for (std::size_t i = 0; i < train_layer->param_blobs().size(); ++i) {
    infer_layer->share_param(i, train_layer->param_blobs()[i]);
  }
  infer_layer->forward({&in}, {&out2});
  env.sync();
  // Same input distribution → outputs close to the batch-stat version.
  double max_diff = 0;
  for (std::size_t i = 0; i < out.count(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(out.data()[i]) - out2.data()[i]));
  }
  EXPECT_LT(max_diff, 0.2);
}

// --- ArgMax / Reduction ---------------------------------------------------------------

TEST_F(ExtLayerTest, ArgMaxPicksLargestFeature) {
  auto layer = mc::create_layer(spec_of("ArgMax"), env.ec);
  Blob in(env.ctx, {2, 4}), out(env.ctx);
  layer->setup({&in}, {&out});
  const float vals[] = {0, 3, 1, 2, /*row 1*/ 9, 0, 0, 0};
  std::copy(vals, vals + 8, in.mutable_data());
  layer->forward({&in}, {&out});
  env.sync();
  EXPECT_FLOAT_EQ(out.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(out.data()[1], 0.0f);
  EXPECT_FALSE(layer->has_backward());
}

TEST_F(ExtLayerTest, ReductionSumAndMean) {
  for (bool mean : {false, true}) {
    LayerSpec s = spec_of("Reduction");
    s.params.reduction_mean = mean;
    auto layer = mc::create_layer(s, env.ec);
    Blob in(env.ctx, {2, 4}), out(env.ctx);
    layer->setup({&in}, {&out});
    for (int i = 0; i < 8; ++i) in.mutable_data()[i] = static_cast<float>(i);
    layer->forward({&in}, {&out});
    env.sync();
    EXPECT_FLOAT_EQ(out.data()[0], mean ? 1.5f : 6.0f);
    EXPECT_FLOAT_EQ(out.data()[1], mean ? 5.5f : 22.0f);
  }
}

TEST_F(ExtLayerTest, ReductionGradients) {
  LayerSpec s = spec_of("Reduction");
  s.params.reduction_mean = true;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {3, 6}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  GradientChecker checker;
  checker.check(env, *layer, {&in}, {&out}, 0);
}

// --- Deconvolution ---------------------------------------------------------------------

TEST_F(ExtLayerTest, DeconvolutionOutputShapeInvertsConvolution) {
  LayerSpec s = spec_of("Deconvolution");
  s.params.num_output = 3;
  s.params.kernel_size = 4;
  s.params.stride = 2;
  s.params.pad = 1;
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 5, 6, 6}), out(env.ctx);
  layer->setup({&in}, {&out});
  // stride*(H-1) + k - 2*pad = 2*5 + 4 - 2 = 12 — the classic 2x upsampler.
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 3, 12, 12}));
}

TEST_F(ExtLayerTest, DeconvolutionIsAdjointOfConvolution) {
  // <conv(x), y> == <x, deconv(y)> when deconv uses conv's weights
  // (bias off): transposed convolution is the adjoint map.
  const int kC = 3, kCo = 4, kH = 7, kK = 3;
  LayerSpec cs = spec_of("Convolution");
  cs.params.num_output = kCo;
  cs.params.kernel_size = kK;
  cs.params.stride = 2;
  cs.params.bias_term = false;
  auto conv = mc::create_layer(cs, env.ec);
  Blob x(env.ctx, {1, kC, kH, kH}), conv_out(env.ctx);
  conv->setup({&x}, {&conv_out});

  LayerSpec ds = spec_of("Deconvolution");
  ds.params.num_output = kC;
  ds.params.kernel_size = kK;
  ds.params.stride = 2;
  ds.params.bias_term = false;
  auto deconv = mc::create_layer(ds, env.ec);
  // Deconv input shape = the conv output shape (1, kCo, 3, 3 for kH=7,
  // k=3, stride=2).
  Blob y(env.ctx, {1, kCo, 3, 3}), deconv_out(env.ctx);
  deconv->setup({&y}, {&deconv_out});
  ASSERT_EQ(deconv_out.height(), kH);
  ASSERT_EQ(conv_out.height(), 3);
  // Conv weights are [kCo, kC·k·k]; deconv weights are [channels_in=kCo,
  // kernel_dim=kC·k·k] — identical layout, so they can be copied across.
  ASSERT_EQ(conv->param_blobs()[0]->count(), deconv->param_blobs()[0]->count());
  std::copy(conv->param_blobs()[0]->data(),
            conv->param_blobs()[0]->data() + conv->param_blobs()[0]->count(),
            deconv->param_blobs()[0]->mutable_data());

  glptest::fill_random(x, rng);
  glptest::fill_random(y, rng);
  conv->forward({&x}, {&conv_out});
  deconv->forward({&y}, {&deconv_out});
  env.sync();
  ASSERT_EQ(conv_out.count(), y.count());
  ASSERT_EQ(deconv_out.count(), x.count());
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < y.count(); ++i) {
    lhs += static_cast<double>(conv_out.data()[i]) * y.data()[i];
  }
  for (std::size_t i = 0; i < x.count(); ++i) {
    rhs += static_cast<double>(x.data()[i]) * deconv_out.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

TEST_F(ExtLayerTest, DeconvolutionGradients) {
  LayerSpec s = spec_of("Deconvolution");
  s.params.num_output = 2;
  s.params.kernel_size = 3;
  s.params.stride = 2;
  s.params.pad = 1;
  s.params.weight_filler = mc::FillerSpec::gaussian(0.2f);
  auto layer = mc::create_layer(s, env.ec);
  Blob in(env.ctx, {2, 3, 4, 4}), out(env.ctx);
  layer->setup({&in}, {&out});
  glptest::fill_random(in, rng);
  GradientChecker checker(1e-2, 2e-2);
  checker.check(env, *layer, {&in}, {&out}, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 0);
  checker.check(env, *layer, {&in}, {&out}, 0, 1);
}

TEST_F(ExtLayerTest, DeconvolutionRunsUnderConcurrentDispatch) {
  // Per-sample dispatch: forward must be bit-identical serial vs a fixed
  // 4-stream scheduler pool.
  auto run = [&](mc::ExecContext& ec) {
    LayerSpec s = spec_of("Deconvolution");
    s.params.num_output = 2;
    s.params.kernel_size = 4;
    s.params.stride = 2;
    s.params.pad = 1;
    s.params.weight_filler = mc::FillerSpec::gaussian(0.2f);
    auto layer = mc::create_layer(s, ec);
    Blob in(*ec.ctx, {8, 3, 5, 5}), out(*ec.ctx);
    layer->setup({&in}, {&out});
    glp::Rng r(5);
    glptest::fill_random(in, r);
    layer->forward({&in}, {&out});
    ec.ctx->device().synchronize();
    return glptest::snapshot(out.data(), out.count());
  };
  Env serial;
  glp4nn::SchedulerOptions fixed;
  fixed.fixed_streams = 4;
  glptest::GlpEnv glp(gpusim::DeviceTable::p100(), fixed);
  EXPECT_EQ(glptest::max_abs_diff(run(serial.ec), run(glp.ec)), 0.0);
}

// --- parser coverage for the new fields -------------------------------------------------

TEST(ExtendedParser, NewLayerKeys) {
  const mc::NetSpec s = mc::parse_net_text(R"(
    layer { name: "e" type: "Eltwise" operation: PROD coeff: 0.5 coeff: 2 }
    layer { name: "p" type: "Power" power: 2 power_scale: 3 power_shift: 1 }
    layer { name: "s" type: "Slice" slice_point: 2 slice_point: 5 }
    layer { name: "bn" type: "BatchNorm" eps: 0.001 use_global_stats: true }
    layer { name: "sc" type: "Scale" scale_bias_term: true }
    layer { name: "r" type: "Reduction" reduction_mean: true }
  )");
  EXPECT_EQ(s.layers[0].params.eltwise, mc::EltwiseOp::kProd);
  EXPECT_EQ(s.layers[0].params.eltwise_coeffs,
            (std::vector<float>{0.5f, 2.0f}));
  EXPECT_FLOAT_EQ(s.layers[1].params.power, 2.0f);
  EXPECT_EQ(s.layers[2].params.slice_points, (std::vector<int>{2, 5}));
  EXPECT_FLOAT_EQ(s.layers[3].params.bn_eps, 0.001f);
  EXPECT_TRUE(s.layers[3].params.use_global_stats);
  EXPECT_TRUE(s.layers[4].params.scale_bias_term);
  EXPECT_TRUE(s.layers[5].params.reduction_mean);
}

}  // namespace
