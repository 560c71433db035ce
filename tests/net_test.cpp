#include <gtest/gtest.h>

#include "common/check.hpp"

#include "minicaffe/models.hpp"
#include "minicaffe/net_parser.hpp"
#include "test_helpers.hpp"

namespace {

using glptest::Env;
using mc::LayerSpec;
using mc::Net;
using mc::NetSpec;

NetSpec tiny_net(int batch = 4) {
  NetSpec s;
  s.name = "tiny";
  LayerSpec data;
  data.type = "Data";
  data.name = "data";
  data.tops = {"data", "label"};
  data.params.dataset = mc::DatasetSpec::mnist();
  data.params.batch_size = batch;
  s.layers.push_back(data);

  LayerSpec ip;
  ip.type = "InnerProduct";
  ip.name = "ip";
  ip.bottoms = {"data"};
  ip.tops = {"ip"};
  ip.params.num_output = 10;
  s.layers.push_back(ip);

  LayerSpec loss;
  loss.type = "SoftmaxWithLoss";
  loss.name = "loss";
  loss.bottoms = {"ip", "label"};
  loss.tops = {"loss"};
  s.layers.push_back(loss);
  return s;
}

TEST(Net, BuildsAndRunsTinyNet) {
  Env env;
  Net net(tiny_net(), env.ec);
  EXPECT_TRUE(net.has_blob("data"));
  EXPECT_TRUE(net.has_blob("ip"));
  EXPECT_EQ(net.learnable_params().size(), 2u);
  net.forward();
  const float loss = net.total_loss();
  EXPECT_NEAR(loss, std::log(10.0f), 0.5f);
  net.backward();
  env.sync();
}

TEST(Net, UnknownBottomThrows) {
  Env env;
  NetSpec s = tiny_net();
  s.layers[1].bottoms = {"nonexistent"};
  EXPECT_THROW(Net(s, env.ec), glp::InvalidArgument);
}

TEST(Net, DuplicateLayerNameThrows) {
  Env env;
  NetSpec s = tiny_net();
  s.layers[2].name = "ip";
  EXPECT_THROW(Net(s, env.ec), glp::InvalidArgument);
}

TEST(Net, RedefiningBlobNotInPlaceThrows) {
  Env env;
  NetSpec s = tiny_net();
  s.layers[1].tops = {"data"};  // overwrites data without consuming it in place
  // "data" IS a bottom of ip, so this is legal in-place... make it illegal:
  s.layers[1].bottoms = {"label"};
  EXPECT_THROW(Net(s, env.ec), glp::InvalidArgument);
}

TEST(Net, InPlaceLayerSharesBlob) {
  Env env;
  NetSpec s = tiny_net();
  LayerSpec relu;
  relu.type = "ReLU";
  relu.name = "relu";
  relu.bottoms = {"ip"};
  relu.tops = {"ip"};
  s.layers.insert(s.layers.begin() + 2, relu);
  Net net(std::move(s), env.ec);
  net.forward();
  env.sync();
  // Post-ReLU the ip blob must be non-negative.
  const mc::Blob* ip = net.blob("ip");
  for (std::size_t i = 0; i < ip->count(); ++i) {
    EXPECT_GE(ip->data()[i], 0.0f);
  }
}

TEST(Net, LookupApis) {
  Env env;
  Net net(tiny_net(), env.ec);
  EXPECT_NE(net.layer_by_name("ip"), nullptr);
  EXPECT_EQ(net.layer_by_name("nope"), nullptr);
  EXPECT_THROW(net.blob("nope"), glp::InvalidArgument);
  const auto names = net.blob_names();
  EXPECT_EQ(names.size(), 4u);  // data, label, ip, loss
}

TEST(Net, ParamSharingReusesBlobAndAccumulatesGradients) {
  Env env;
  NetSpec s = tiny_net();
  // Second IP consuming the same data, sharing weights with the first.
  s.layers[1].param_names = {"w", "b"};
  LayerSpec ip2 = s.layers[1];
  ip2.name = "ip2";
  ip2.tops = {"ip2"};
  s.layers.insert(s.layers.begin() + 2, ip2);
  LayerSpec loss2;
  loss2.type = "SoftmaxWithLoss";
  loss2.name = "loss2";
  loss2.bottoms = {"ip2", "label"};
  loss2.tops = {"loss2"};
  s.layers.push_back(loss2);

  Net net(std::move(s), env.ec);
  // Shared params appear once in the learnable list.
  EXPECT_EQ(net.learnable_params().size(), 2u);
  auto* l1 = net.layer_by_name("ip");
  auto* l2 = net.layer_by_name("ip2");
  EXPECT_EQ(l1->param_blobs()[0].get(), l2->param_blobs()[0].get());

  net.forward();
  env.sync();
  // Identical weights + identical input → identical outputs.
  EXPECT_EQ(glptest::max_abs_diff(
                glptest::snapshot(net.blob("ip")->data(), net.blob("ip")->count()),
                glptest::snapshot(net.blob("ip2")->data(), net.blob("ip2")->count())),
            0.0);

  net.zero_param_diffs();
  net.backward();
  env.sync();
  // Both branches see the same gradient, so the shared diff is 2x one branch.
  // (Indirect check: diff must be nonzero.)
  const mc::Blob& w = *net.learnable_params()[0];
  double norm = 0;
  for (std::size_t i = 0; i < w.count(); ++i) norm += std::abs(w.diff()[i]);
  EXPECT_GT(norm, 0.0);
}

TEST(Net, SharedParamShapeMismatchThrows) {
  Env env;
  NetSpec s = tiny_net();
  s.layers[1].param_names = {"w"};
  LayerSpec ip2 = s.layers[1];
  ip2.name = "ip2";
  ip2.tops = {"ip2"};
  ip2.params.num_output = 7;  // different shape, same param name
  s.layers.insert(s.layers.begin() + 2, ip2);
  EXPECT_THROW(Net(std::move(s), env.ec), glp::InvalidArgument);
}

TEST(Net, ConsumerContractViolationThrows) {
  // Two assigning consumers (ReLU, Sigmoid) of the same blob → error.
  Env env;
  NetSpec s = tiny_net();
  LayerSpec r1;
  r1.type = "ReLU";
  r1.name = "r1";
  r1.bottoms = {"ip"};
  r1.tops = {"r1"};
  LayerSpec r2;
  r2.type = "Sigmoid";
  r2.name = "r2";
  r2.bottoms = {"ip"};
  r2.tops = {"r2"};
  // Give the branches loss consumers so gradients propagate into them.
  LayerSpec l1;
  l1.type = "EuclideanLoss";
  l1.name = "l1";
  l1.bottoms = {"r1", "r2"};
  l1.tops = {"l1"};
  s.layers.insert(s.layers.begin() + 2, r1);
  s.layers.insert(s.layers.begin() + 3, r2);
  s.layers.insert(s.layers.begin() + 4, l1);
  EXPECT_THROW(Net(std::move(s), env.ec), glp::InvalidArgument);
}

TEST(Net, FanOutThroughAccumulatingLayersIsAllowed) {
  // The same blob feeding two InnerProduct layers (accumulate-safe) is fine.
  Env env;
  NetSpec s = tiny_net();
  LayerSpec ip2 = s.layers[1];
  ip2.name = "ip2";
  ip2.tops = {"ip2"};
  ip2.bottoms = {"ip"};
  LayerSpec ip3 = ip2;
  ip3.name = "ip3";
  ip3.tops = {"ip3"};
  LayerSpec cc;
  cc.type = "Concat";
  cc.name = "cc";
  cc.bottoms = {"ip2", "ip3"};
  cc.tops = {"cc"};
  LayerSpec loss2;
  loss2.type = "EuclideanLoss";
  loss2.name = "l2";
  loss2.bottoms = {"ip2", "ip3"};
  loss2.tops = {"l2"};
  s.layers.insert(s.layers.begin() + 2, ip2);
  s.layers.insert(s.layers.begin() + 3, ip3);
  s.layers.back().bottoms = {"ip2", "label"};  // loss consumes a branch
  EXPECT_NO_THROW(Net(std::move(s), env.ec));
}

TEST(Net, LossIsWeighted) {
  Env env;
  NetSpec s = tiny_net();
  s.layers[2].params.loss_weight = 2.0f;
  Net net(std::move(s), env.ec);
  net.forward();
  EXPECT_NEAR(net.total_loss(), 2.0f * std::log(10.0f), 1.0f);
}

TEST(Net, TimingOnlyModeRunsWithoutNumerics) {
  Env env(gpusim::DeviceTable::p100(), kern::ComputeMode::kTimingOnly);
  Net net(mc::models::cifar10_quick(10), env.ec);
  net.forward();
  net.backward();
  env.sync();
  EXPECT_GT(env.ctx.device().stats().kernels_launched, 0u);
}

TEST(Net, SummaryListsLayersShapesAndParams) {
  Env env;
  Net net(tiny_net(), env.ec);
  const std::string s = net.summary();
  EXPECT_NE(s.find("InnerProduct"), std::string::npos);
  EXPECT_NE(s.find("4x1x28x28"), std::string::npos);
  EXPECT_NE(s.find("learnable parameters"), std::string::npos);
  // ip: 10x784 weights + 10 bias = 7850.
  EXPECT_NE(s.find("7850"), std::string::npos);
}

// --- parser --------------------------------------------------------------------------

constexpr const char* kTextNet = R"(
# a comment
name: "parsed"
layer {
  name: "data" type: "Data"
  top: "data" top: "label"
  dataset: "mnist"
  batch_size: 4
}
layer {
  name: "ip" type: "InnerProduct"
  bottom: "data" top: "ip"
  num_output: 10
  weight_filler { type: "gaussian" std: 0.05 }
  bias_filler { type: "constant" value: 0.1 }
}
layer {
  name: "loss" type: "SoftmaxWithLoss"
  bottom: "ip" bottom: "label" top: "loss"
  loss_weight: 1.5
}
)";

TEST(NetParser, ParsesFullNet) {
  const NetSpec s = mc::parse_net_text(kTextNet);
  EXPECT_EQ(s.name, "parsed");
  ASSERT_EQ(s.layers.size(), 3u);
  EXPECT_EQ(s.layers[0].params.dataset.name, "mnist");
  EXPECT_EQ(s.layers[0].params.batch_size, 4);
  EXPECT_EQ(s.layers[1].params.num_output, 10);
  EXPECT_EQ(s.layers[1].params.weight_filler.kind, mc::FillerSpec::Kind::kGaussian);
  EXPECT_FLOAT_EQ(s.layers[1].params.weight_filler.std, 0.05f);
  EXPECT_FLOAT_EQ(s.layers[1].params.bias_filler.value, 0.1f);
  EXPECT_FLOAT_EQ(s.layers[2].params.loss_weight, 1.5f);
  ASSERT_EQ(s.layers[2].bottoms.size(), 2u);
}

TEST(NetParser, ParsedNetTrains) {
  Env env;
  Net net(mc::parse_net_text(kTextNet), env.ec);
  net.forward();
  const float before = net.total_loss();
  EXPECT_GT(before, 0.0f);
}

TEST(NetParser, ReportsLineNumbers) {
  try {
    mc::parse_net_text("name: \"x\"\nlayer {\n  bogus_key: 3\n}\n");
    FAIL();
  } catch (const glp::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(NetParser, RejectsMalformedInput) {
  EXPECT_THROW(mc::parse_net_text("layer {"), glp::InvalidArgument);
  EXPECT_THROW(mc::parse_net_text("name: \"unterminated"), glp::InvalidArgument);
  EXPECT_THROW(mc::parse_net_text("wat: 3"), glp::InvalidArgument);
  EXPECT_THROW(mc::parse_net_text("layer { name: \"x\" }"),
               glp::InvalidArgument);  // missing type
  EXPECT_THROW(mc::parse_net_text("layer { type: \"Pooling\" pool: MEDIAN }"),
               glp::InvalidArgument);
}

TEST(NetParser, PoolMethodsAndBooleans) {
  const NetSpec s = mc::parse_net_text(R"(
    layer { name: "p" type: "Pooling" pool: AVE kernel_size: 2 stride: 2 }
    layer { name: "c" type: "Convolution" bias_term: false num_output: 4 kernel_size: 1 }
  )");
  EXPECT_EQ(s.layers[0].params.pool, mc::PoolMethod::kAve);
  EXPECT_FALSE(s.layers[1].params.bias_term);
}

TEST(NetParser, RoundTripThroughSerializer) {
  const NetSpec original = mc::parse_net_text(kTextNet);
  const std::string text = mc::net_to_text(original);
  const NetSpec reparsed = mc::parse_net_text(text);
  ASSERT_EQ(reparsed.layers.size(), original.layers.size());
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.layers[1].params.num_output, 10);
  EXPECT_EQ(reparsed.layers[0].params.batch_size, 4);
}

TEST(NetParser, CustomDatasetDimensions) {
  const NetSpec s = mc::parse_net_text(R"(
    layer {
      name: "data" type: "Data" top: "data" top: "label"
      dataset: "features" dataset_channels: 832 dataset_height: 7
      dataset_width: 7 dataset_classes: 10 batch_size: 32
    }
  )");
  EXPECT_EQ(s.layers[0].params.dataset.channels, 832);
  EXPECT_EQ(s.layers[0].params.dataset.height, 7);
}

// The data layer builds its dataset on the first numeric forward, so a
// dataset that could never be built must be rejected when the net is,
// in timing-only mode too.
TEST(NetParser, RejectsDatasetWithoutClasses) {
  const NetSpec s = mc::parse_net_text(R"(
    layer {
      name: "data" type: "Data" top: "data" top: "label"
      dataset: "empty" dataset_classes: 0 batch_size: 4
    }
    layer {
      name: "ip" type: "InnerProduct" bottom: "data" top: "ip"
      num_output: 10
    }
    layer {
      name: "loss" type: "SoftmaxWithLoss"
      bottom: "ip" bottom: "label" top: "loss"
    }
  )");
  ASSERT_EQ(s.layers[0].params.dataset.num_classes, 0);
  Env env(gpusim::DeviceTable::p100(), kern::ComputeMode::kTimingOnly);
  EXPECT_THROW(Net(s, env.ec), glp::InvalidArgument);
}

}  // namespace
