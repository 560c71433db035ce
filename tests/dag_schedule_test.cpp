// DAG-schedule property tests: over the branchy fuzz corpus and
// hand-built nets,
//   * the op order NetDag issues is a valid topological order of its own
//     dependency DAG (forward and backward): every dep points to a lower
//     op index;
//   * no op's kernel ever starts before every producer op's kernel ended
//     on the recorded timeline (the event-wait protocol actually holds);
//   * fusion never crosses a DAG edge: a ReLU is absorbed as a GEMM
//     epilogue only when the producer is its sole dependency, and a
//     coalesced chain member depends only on its chain predecessor;
//   * the three-way DAG differential (DAG vs serial AND DAG vs chain-only)
//     passes on sampled corpus cases.

#include <gtest/gtest.h>

#include <vector>

#include "minicaffe/models.hpp"
#include "minicaffe/net_dag.hpp"
#include "test_helpers.hpp"
#include "testing/differential.hpp"
#include "testing/net_generator.hpp"
#include "testing/race_checker.hpp"

namespace {

/// Issuing ops in index order is topological iff every dep points to a
/// lower index.
void expect_deps_point_backwards(const std::vector<mc::NetDag::Op>& ops) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (int d : ops[i].deps) {
      EXPECT_GE(d, 0) << ops[i].name;
      EXPECT_LT(d, static_cast<int>(i)) << ops[i].name;
    }
  }
}

glpfuzz::FuzzCase dag_case(std::uint64_t seed) {
  glpfuzz::NetGenOptions gen;
  gen.dag_corpus = true;
  return glpfuzz::make_case(seed, gen);
}

TEST(DagSchedule, IssueOrderIsTopologicalOverTheCorpus) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GLP_SCOPED_SEED(seed);
    const glpfuzz::FuzzCase c = dag_case(seed);
    glptest::GlpEnv glp(c.device, c.options);
    glp.ec.dag_schedule = true;
    mc::Net net(c.net, glp.ec);
    ASSERT_NE(net.dag(), nullptr);

    const auto& fwd = net.dag()->forward_ops();
    ASSERT_FALSE(fwd.empty());
    expect_deps_point_backwards(fwd);
    expect_deps_point_backwards(net.dag()->backward_ops());
  }
}

TEST(DagSchedule, FusionNeverCrossesADagEdge) {
  bool saw_epilogue = false, saw_chain = false;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GLP_SCOPED_SEED(seed);
    const glpfuzz::FuzzCase c = dag_case(seed);
    glptest::GlpEnv glp(c.device, c.options);
    glp.ec.dag_schedule = true;
    mc::Net net(c.net, glp.ec);
    ASSERT_NE(net.dag(), nullptr);

    const auto& ops = net.dag()->forward_ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const mc::NetDag::Op& op = ops[i];
      if (op.absorbed) {
        saw_epilogue = true;
        // An absorbed ReLU's ONLY dependency is the producing GEMM — any
        // other reader of the pre-activation blob would have added a WAR
        // edge and blocked the fusion.
        ASSERT_EQ(op.deps.size(), 1u) << op.name;
        EXPECT_EQ(op.deps[0], op.absorbed_into) << op.name;
        const mc::NetDag::Op& prod = ops[static_cast<std::size_t>(op.absorbed_into)];
        EXPECT_TRUE(prod.type == "Convolution" || prod.type == "InnerProduct")
            << prod.type;
        EXPECT_EQ(net.dag()->relu_epilogues().count(prod.name), 1u);
      }
      if (op.fused_head >= 0 && op.fused_head != static_cast<int>(i)) {
        saw_chain = true;
        // A coalesced chain member depends only on its immediate chain
        // predecessor; a cross-edge (another producer feeding into the
        // middle of the chain) would have broken the run.
        ASSERT_EQ(op.deps.size(), 1u) << op.name;
        EXPECT_EQ(op.deps[0], static_cast<int>(i) - 1) << op.name;
        EXPECT_EQ(ops[i - 1].fused_head, op.fused_head) << op.name;
      }
    }
  }
  // The corpus is built to trigger both mechanisms.
  EXPECT_TRUE(saw_epilogue);
  EXPECT_TRUE(saw_chain);
}

TEST(DagSchedule, PreActivationReaderBlocksEpilogueFusion) {
  // conv1's top is read by pool1 *before* relu1 rewrites it in place, so
  // relu1 carries a WAR edge on pool1 and must NOT be folded into conv1's
  // GEMM (the epilogue would destroy the pre-activation values pool1 reads
  // — with DAG overlap the two could even run concurrently).
  mc::NetSpec spec;
  spec.name = "preact_reader";
  auto add = [&](const char* type, const char* name,
                 std::vector<std::string> bottoms,
                 std::vector<std::string> tops) -> mc::LayerSpec& {
    mc::LayerSpec l;
    l.type = type;
    l.name = name;
    l.bottoms = std::move(bottoms);
    l.tops = std::move(tops);
    spec.layers.push_back(std::move(l));
    return spec.layers.back();
  };
  mc::LayerSpec& data = add("Data", "data", {}, {"data", "label"});
  data.params.dataset.name = "random";
  data.params.dataset.num_classes = 3;
  data.params.dataset.channels = 1;
  data.params.dataset.height = 8;
  data.params.dataset.width = 8;
  data.params.dataset.train_size = 32;
  data.params.batch_size = 4;
  mc::LayerSpec& conv = add("Convolution", "conv1", {"data"}, {"conv1"});
  conv.params.num_output = 4;
  conv.params.kernel_size = 3;
  conv.params.pad = 1;
  mc::LayerSpec& pool = add("Pooling", "pool1", {"conv1"}, {"pool1"});
  pool.params.pool = mc::PoolMethod::kMax;
  pool.params.kernel_size = 2;
  pool.params.stride = 2;
  add("ReLU", "relu1", {"conv1"}, {"conv1"});  // in-place, after pool1
  mc::LayerSpec& ip = add("InnerProduct", "ip1", {"conv1"}, {"ip1"});
  ip.params.num_output = 3;
  add("SoftmaxWithLoss", "loss", {"ip1", "label"}, {"loss"});

  glptest::GlpEnv glp;
  glp.ec.dag_schedule = true;
  mc::Net net(spec, glp.ec);
  ASSERT_NE(net.dag(), nullptr);

  EXPECT_EQ(net.dag()->relu_epilogues().count("conv1"), 0u);
  bool found_relu = false;
  for (const mc::NetDag::Op& op : net.dag()->forward_ops()) {
    if (op.name != "relu1") continue;
    found_relu = true;
    EXPECT_FALSE(op.absorbed);
    EXPECT_EQ(op.deps.size(), 2u);  // RAW on conv1 + WAR on pool1
  }
  EXPECT_TRUE(found_relu);

  // The blocked fusion must not change numerics either.
  net.forward();
  net.backward();
  glp.sync();
}

TEST(DagSchedule, NoOpLaunchesBeforeItsProducersOnTheTimeline) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GLP_SCOPED_SEED(seed);
    const glpfuzz::FuzzCase c = dag_case(seed);
    glptest::GlpEnv glp(c.device, c.options);
    glp.ec.dag_schedule = true;
    mc::Net net(c.net, glp.ec);
    ASSERT_NE(net.dag(), nullptr);

    // Warm-up pass so scope profiling + stream-count analysis settle,
    // then check one clean pass at a time on an emptied timeline.
    net.forward();
    net.backward();
    glp.sync();

    gpusim::Timeline& tl = glp.ctx.device().timeline();
    tl.set_enabled(true);
    tl.clear();
    net.forward();
    glp.sync();
    const glpfuzz::OpScheduleReport fwd = glpfuzz::check_op_schedule(
        tl, net.dag()->forward_schedule());
    EXPECT_TRUE(fwd.clean()) << fwd.to_string();
    EXPECT_GT(fwd.ops_matched, 0u);
    EXPECT_GT(fwd.edges_checked, 0u);

    tl.clear();
    net.backward();
    glp.sync();
    const glpfuzz::OpScheduleReport bwd = glpfuzz::check_op_schedule(
        tl, net.dag()->backward_schedule());
    EXPECT_TRUE(bwd.clean()) << bwd.to_string();
    EXPECT_GT(bwd.edges_checked, 0u);
  }
}

TEST(DagSchedule, InceptionBranchesOverlapOnAConcurrentDevice) {
  gpusim::DeviceProps device = gpusim::DeviceTable::p100();
  device.max_concurrent_kernels = 32;
  glp4nn::SchedulerOptions options;
  options.fixed_streams = 4;
  glptest::GlpEnv glp(device, options);
  glp.ec.dag_schedule = true;
  mc::Net net(mc::models::googlenet_tail(8), glp.ec);
  ASSERT_NE(net.dag(), nullptr);

  net.forward();
  net.backward();
  glp.sync();

  gpusim::Timeline& tl = glp.ctx.device().timeline();
  tl.set_enabled(true);
  tl.clear();
  net.forward();
  glp.sync();
  const glpfuzz::OpScheduleReport fwd = glpfuzz::check_op_schedule(
      tl, net.dag()->forward_schedule());
  EXPECT_TRUE(fwd.clean()) << fwd.to_string();
  // The four inception branches are mutually independent; with four
  // streams at least two op spans must actually overlap.
  EXPECT_GE(fwd.peak_op_concurrency, 2);
}

TEST(DagSchedule, DagDifferentialPassesOnSampledCorpus) {
  glpfuzz::DiffOptions diff;
  diff.scenario = glpfuzz::Scenario::kDag;
  diff.faults.launch_failure_rate = 0.05;  // exercise fault reroutes too
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    GLP_SCOPED_SEED(seed);
    const glpfuzz::DiffResult r =
        glpfuzz::run_differential(dag_case(seed), diff);
    EXPECT_TRUE(r.ok) << r.failure;
    EXPECT_TRUE(r.forward_schedule.clean()) << r.forward_schedule.to_string();
    EXPECT_TRUE(r.backward_schedule.clean()) << r.backward_schedule.to_string();
  }
}

}  // namespace
