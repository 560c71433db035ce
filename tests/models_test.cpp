#include <map>
#include <memory>
// Verifies the model zoo against the paper's Table 5: every tracked
// convolution layer's (N, C_i, H/W, C_o, F, S, P) must match the row the
// paper reports, and all four networks must build and run.

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "minicaffe/layers/conv_layer.hpp"
#include "minicaffe/models.hpp"
#include "minicaffe/net_dag.hpp"
#include "minicaffe/solver.hpp"
#include "test_helpers.hpp"

namespace {

using glptest::Env;
using mc::Net;
using mc::NetSpec;

struct Table5Row {
  const char* net;
  const char* layer;  // tracked layer name in our model zoo
  int n, ci, hw, co, f, s, p;
};

// The full Table 5 of the paper. GoogLeNet conv_1..conv_6 map to the
// inception_5a/5b units (see models::tracked_conv_layers).
const Table5Row kTable5[] = {
    {"CIFAR10", "conv1", 100, 3, 32, 32, 5, 1, 2},
    {"CIFAR10", "conv2", 100, 32, 16, 32, 5, 1, 2},
    {"CIFAR10", "conv3", 100, 32, 8, 64, 5, 1, 2},
    {"Siamese", "conv1", 64, 1, 28, 20, 5, 1, 0},
    {"Siamese", "conv2", 64, 20, 12, 50, 5, 1, 0},
    {"Siamese", "conv1_p", 64, 1, 28, 20, 5, 1, 0},
    {"Siamese", "conv2_p", 64, 20, 12, 50, 5, 1, 0},
    {"CaffeNet", "conv1", 256, 3, 227, 96, 11, 4, 0},
    {"CaffeNet", "conv2", 256, 96, 27, 256, 5, 1, 2},
    {"CaffeNet", "conv3", 256, 256, 13, 384, 3, 1, 1},
    {"CaffeNet", "conv4", 256, 384, 13, 384, 3, 1, 1},
    {"CaffeNet", "conv5", 256, 384, 13, 256, 3, 1, 1},
    {"GoogLeNet", "inception_5a/3x3", 32, 160, 7, 320, 3, 1, 1},
    {"GoogLeNet", "inception_5a/5x5_reduce", 32, 832, 7, 32, 1, 1, 0},
    {"GoogLeNet", "inception_5b/1x1", 32, 832, 7, 384, 1, 1, 0},
    {"GoogLeNet", "inception_5b/3x3", 32, 192, 7, 384, 3, 1, 1},
    {"GoogLeNet", "inception_5b/3x3_reduce", 32, 832, 7, 192, 1, 1, 0},
    {"GoogLeNet", "inception_5b/5x5_reduce", 32, 832, 7, 48, 1, 1, 0},
};

NetSpec spec_for(const std::string& name) {
  for (auto& [n, spec] : mc::models::paper_networks()) {
    if (n == name) return spec;
  }
  ADD_FAILURE() << "unknown net " << name;
  return {};
}

class Table5 : public ::testing::TestWithParam<Table5Row> {
 protected:
  // Cache nets across rows — building CaffeNet repeatedly is expensive.
  static Net& net_for(const std::string& name) {
    static std::map<std::string, std::pair<std::unique_ptr<Env>, std::unique_ptr<Net>>> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      auto env = std::make_unique<Env>(gpusim::DeviceTable::p100(),
                                       kern::ComputeMode::kTimingOnly);
      auto net = std::make_unique<Net>(spec_for(name), env->ec);
      it = cache.emplace(name, std::make_pair(std::move(env), std::move(net))).first;
    }
    return *it->second.second;
  }
};

TEST_P(Table5, LayerConfigurationMatchesPaper) {
  const Table5Row& row = GetParam();
  Net& net = net_for(row.net);
  auto* layer = dynamic_cast<mc::ConvolutionLayer*>(net.layer_by_name(row.layer));
  ASSERT_NE(layer, nullptr) << row.net << "/" << row.layer;

  const auto& p = layer->params();
  EXPECT_EQ(p.num_output, row.co);
  EXPECT_EQ(p.kernel_size, row.f);
  EXPECT_EQ(p.stride, row.s);
  EXPECT_EQ(p.pad, row.p);

  // Input shape: find the layer's bottom blob.
  const mc::Blob* bottom = net.blob(layer->spec().bottoms[0]);
  EXPECT_EQ(bottom->num(), row.n);
  EXPECT_EQ(bottom->channels(), row.ci);
  EXPECT_EQ(bottom->height(), row.hw);
  EXPECT_EQ(bottom->width(), row.hw);
}

INSTANTIATE_TEST_SUITE_P(PaperRows, Table5, ::testing::ValuesIn(kTable5),
                         [](const auto& info) {
                           std::string n = std::string(info.param.net) + "_" +
                                           info.param.layer;
                           for (char& c : n) {
                             if (c == '/') c = '_';
                           }
                           return n;
                         });

// --- structural checks ----------------------------------------------------------

TEST(Models, PaperNetworksListsFour) {
  const auto nets = mc::models::paper_networks();
  ASSERT_EQ(nets.size(), 4u);
  EXPECT_EQ(nets[0].name, "CIFAR10");
  EXPECT_EQ(nets[1].name, "Siamese");
  EXPECT_EQ(nets[2].name, "CaffeNet");
  EXPECT_EQ(nets[3].name, "GoogLeNet");
}

TEST(Models, TrackedConvLayersExist) {
  for (const auto& [name, spec] : mc::models::paper_networks()) {
    Env env(gpusim::DeviceTable::p100(), kern::ComputeMode::kTimingOnly);
    Net net(spec, env.ec);
    for (const std::string& layer : mc::models::tracked_conv_layers(name)) {
      EXPECT_NE(net.layer_by_name(layer), nullptr) << name << "/" << layer;
    }
  }
}

TEST(Models, SiameseSharesWeightsAcrossBranches) {
  Env env;
  Net net(mc::models::siamese_mnist(8), env.ec);
  auto* a = net.layer_by_name("conv1");
  auto* b = net.layer_by_name("conv1_p");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->param_blobs()[0].get(), b->param_blobs()[0].get());
  EXPECT_EQ(a->param_blobs()[1].get(), b->param_blobs()[1].get());
}

TEST(Models, SiameseTrainsWithContrastiveLoss) {
  Env env;
  Net net(mc::models::siamese_mnist(16), env.ec);
  mc::SolverParams p;
  p.base_lr = 0.01f;
  mc::SgdSolver solver(net, p);
  std::vector<float> losses;
  solver.step(10, [&](int, float l) { losses.push_back(l); });
  EXPECT_LT((losses[8] + losses[9]) / 2, (losses[0] + losses[1]) / 2 + 0.5f);
}

TEST(Models, Cifar10TrainsAndLossDrops) {
  Env env;
  Net net(mc::models::cifar10_quick(32), env.ec);
  mc::SgdSolver solver(net, {});
  std::vector<float> losses;
  solver.step(8, [&](int, float l) { losses.push_back(l); });
  EXPECT_LT(losses.back(), losses.front() + 0.5f);
  EXPECT_LT(losses.back(), 3.0f);
}

TEST(Models, GoogLeNetTailForwardBackward) {
  Env env;
  Net net(mc::models::googlenet_tail(4), env.ec);
  net.forward();
  const float loss = net.total_loss();
  EXPECT_GT(loss, 0.0f);
  EXPECT_LT(loss, 10.0f);
  net.backward();
  env.sync();
}

TEST(Models, GoogLeNetTailDagBitIdenticalToSerial) {
  // The inception tail is the DAG scheduler's home turf: four independent
  // branches per unit plus in-place ReLUs right after the convs (GEMM
  // epilogue fusion). Batch 8 ≤ 32 → bit-exact for any stream layout.
  auto train = [](mc::ExecContext& ec, std::vector<float>* losses,
                  std::size_t* epilogues) {
    Net net(mc::models::googlenet_tail(8), ec);
    mc::SgdSolver solver(net, {});
    solver.step(3, [&](int, float loss) { losses->push_back(loss); });
    ec.ctx->device().synchronize();
    if (epilogues != nullptr && net.dag() != nullptr) {
      *epilogues = net.dag()->relu_epilogues().size();
    }
    std::vector<float> out;
    for (const auto& p : net.learnable_params()) {
      const float* d = p->data();
      out.insert(out.end(), d, d + p->count());
    }
    return out;
  };

  Env serial;
  std::vector<float> serial_losses;
  const auto serial_w = train(serial.ec, &serial_losses, nullptr);

  glptest::GlpEnv glp;
  glp.ec.dag_schedule = true;
  std::vector<float> dag_losses;
  std::size_t epilogues = 0;
  const auto dag_w = train(glp.ec, &dag_losses, &epilogues);

  EXPECT_EQ(serial_losses, dag_losses);
  EXPECT_EQ(glptest::max_abs_diff(serial_w, dag_w), 0.0);
  // The fused elementwise path must actually have been exercised.
  EXPECT_GT(epilogues, 0u);
}

TEST(Models, GoogLeNetConcatWidths) {
  Env env(gpusim::DeviceTable::p100(), kern::ComputeMode::kTimingOnly);
  Net net(mc::models::googlenet_tail(2), env.ec);
  // 5a output: 256+320+128+128 = 832; 5b: 384+384+128+128 = 1024.
  EXPECT_EQ(net.blob("inception_5a/output")->channels(), 832);
  EXPECT_EQ(net.blob("inception_5b/output")->channels(), 1024);
}

TEST(Models, CaffeNetShapesFlowToFc) {
  Env env(gpusim::DeviceTable::p100(), kern::ComputeMode::kTimingOnly);
  Net net(mc::models::caffenet(2), env.ec);
  EXPECT_EQ(net.blob("conv1")->height(), 55);
  EXPECT_EQ(net.blob("pool1")->height(), 27);
  EXPECT_EQ(net.blob("conv2")->height(), 27);
  EXPECT_EQ(net.blob("pool2")->height(), 13);
  EXPECT_EQ(net.blob("conv5")->height(), 13);
  EXPECT_EQ(net.blob("pool5")->height(), 6);
  EXPECT_EQ(net.blob("fc6")->sample_size(), 4096u);
  EXPECT_EQ(net.blob("fc8")->sample_size(), 1000u);
}

TEST(Models, LenetTrains) {
  Env env;
  Net net(mc::models::lenet(8), env.ec);
  mc::SgdSolver solver(net, {});
  solver.step(2);
  EXPECT_GT(solver.last_loss(), 0.0f);
}

TEST(Models, BatchSizesMatchTable5) {
  EXPECT_EQ(mc::models::cifar10_quick().layers[0].params.batch_size, 100);
  EXPECT_EQ(mc::models::siamese_mnist().layers[0].params.batch_size, 64);
  EXPECT_EQ(mc::models::caffenet().layers[0].params.batch_size, 256);
  EXPECT_EQ(mc::models::googlenet_tail().layers[0].params.batch_size, 32);
}

}  // namespace
