// End-to-end properties of GLP4NN-Caffe vs naive-Caffe, the paper's
// §3.3.1 claims: convergence invariance (bit-identical here, stronger
// than the paper's "similar"), network agnosticism (any net runs under
// the scheduler unchanged), and lightweight overhead.

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "minicaffe/models.hpp"
#include "minicaffe/net_parser.hpp"
#include "minicaffe/solver.hpp"
#include "test_helpers.hpp"

namespace {

using glptest::Env;
using glptest::GlpEnv;
using mc::Net;
using mc::NetSpec;
using mc::SgdSolver;

std::vector<float> train_and_snapshot(mc::ExecContext& ec, NetSpec spec,
                                      int iters, std::vector<float>* losses) {
  Net net(std::move(spec), ec);
  SgdSolver solver(net, {});
  solver.step(iters, [&](int, float loss) {
    if (losses != nullptr) losses->push_back(loss);
  });
  // Snapshot every learnable parameter.
  std::vector<float> out;
  for (const auto& p : net.learnable_params()) {
    const float* d = p->data();
    out.insert(out.end(), d, d + p->count());
  }
  return out;
}

TEST(ConvergenceInvariance, LenetBitIdenticalSerialVsGlp4nn) {
  // Batch 16 ≤ 32 → every sample owns a gradient slot → bit-identical for
  // any stream layout.
  Env serial;
  std::vector<float> serial_losses;
  const auto serial_w =
      train_and_snapshot(serial.ec, mc::models::lenet(16), 5, &serial_losses);

  GlpEnv glp;
  std::vector<float> glp_losses;
  const auto glp_w =
      train_and_snapshot(glp.ec, mc::models::lenet(16), 5, &glp_losses);

  EXPECT_EQ(serial_losses, glp_losses);
  EXPECT_EQ(glptest::max_abs_diff(serial_w, glp_w), 0.0);
}

TEST(ConvergenceInvariance, StrictReproBitIdenticalWithLargeBatch) {
  // Batch 48 > 32: slots are shared between samples; the strict-repro
  // scheduler restricts pools to divisors of 32 so slot order is
  // stream-stable → still bit-identical.
  Env serial;
  const auto serial_w =
      train_and_snapshot(serial.ec, mc::models::cifar10_quick(48), 3, nullptr);

  glp4nn::SchedulerOptions opts;
  opts.strict_repro = true;
  GlpEnv glp(gpusim::DeviceTable::p100(), opts);
  const auto glp_w =
      train_and_snapshot(glp.ec, mc::models::cifar10_quick(48), 3, nullptr);

  EXPECT_EQ(glptest::max_abs_diff(serial_w, glp_w), 0.0);
}

TEST(ConvergenceInvariance, FreeModeMatchesWithinFloatTolerance) {
  // Without strict-repro the gradient slot summation order can differ →
  // equal up to float reassociation (the paper's actual claim).
  Env serial;
  std::vector<float> serial_losses;
  const auto serial_w = train_and_snapshot(
      serial.ec, mc::models::cifar10_quick(48), 4, &serial_losses);

  GlpEnv glp;
  std::vector<float> glp_losses;
  const auto glp_w = train_and_snapshot(glp.ec, mc::models::cifar10_quick(48),
                                        4, &glp_losses);

  ASSERT_EQ(serial_losses.size(), glp_losses.size());
  for (std::size_t i = 0; i < serial_losses.size(); ++i) {
    EXPECT_NEAR(serial_losses[i], glp_losses[i], 1e-3 + 1e-3 * serial_losses[i]);
  }
  EXPECT_LT(glptest::max_abs_diff(serial_w, glp_w), 1e-2);
}

TEST(ConvergenceInvariance, ForwardPassBitIdenticalAnyStreams) {
  // Forward writes are disjoint per sample → bit-identical regardless of
  // stream count, even without strict mode.
  const auto output = [](mc::ExecContext& ec) {
    Net net(mc::models::cifar10_quick(40), ec);
    net.forward();
    ec.ctx->device().synchronize();
    const mc::Blob* out = net.blob("ip2");
    return glptest::snapshot(out->data(), out->count());
  };
  Env serial;
  const auto base = output(serial.ec);
  for (int streams : {2, 3, 5, 8}) {
    glp4nn::SchedulerOptions fixed;
    fixed.fixed_streams = streams;
    GlpEnv glp(gpusim::DeviceTable::p100(), fixed);
    EXPECT_EQ(glptest::max_abs_diff(base, output(glp.ec)), 0.0) << streams;
  }
}

TEST(ConvergenceInvariance, GoogLeNetDagBitIdenticalUnderBothEngines) {
  // Inter-operator DAG scheduling (branch overlap + fused elementwise
  // chains, with the concurrent branches sized by joint analyzer solves)
  // must leave training bit-identical to the serial baseline, on the
  // optimized engine AND on ReferenceEngine, under either objective
  // (batch 8 ≤ 32 → the bit-exact branch of the contract applies
  // unconditionally).
  Env serial;
  std::vector<float> serial_losses;
  const auto serial_w = train_and_snapshot(
      serial.ec, mc::models::googlenet_tail(8), 3, &serial_losses);

  for (const glp4nn::Objective objective :
       {glp4nn::Objective::kThreads, glp4nn::Objective::kDurationWeighted}) {
    SCOPED_TRACE(objective == glp4nn::Objective::kThreads ? "Eq. 3"
                                                           : "weighted");
    std::vector<std::pair<double, double>> clocks;  // (host, device) ns
    for (const gpusim::EngineKind kind :
         {gpusim::EngineKind::kOptimized, gpusim::EngineKind::kReference}) {
      SCOPED_TRACE(kind == gpusim::EngineKind::kOptimized ? "optimized"
                                                           : "reference");
      scuda::Context ctx(gpusim::DeviceTable::p100(), kind);
      glp4nn::SchedulerOptions options;
      options.objective = objective;
      glp4nn::Glp4nnEngine engine(options);
      mc::ExecContext ec;
      ec.ctx = &ctx;
      ec.dispatcher = &engine.scheduler_for(ctx);
      ec.dag_schedule = true;
      std::vector<float> dag_losses;
      const auto dag_w = train_and_snapshot(
          ec, mc::models::googlenet_tail(8), 3, &dag_losses);
      EXPECT_EQ(serial_losses, dag_losses);
      EXPECT_EQ(glptest::max_abs_diff(serial_w, dag_w), 0.0);
      EXPECT_GT(engine.scheduler_for(ctx).dag_joint_groups(), 0u);
      clocks.emplace_back(ctx.device().host_now(), ctx.device().device_now());
    }
    // Both engines end on the same clocks, joint-solve charges included.
    EXPECT_EQ(clocks[0], clocks[1]);
  }
}

TEST(Determinism, Glp4nnRunsAreRepeatable) {
  // Same losses and the same simulated clocks: no wall time reaches them.
  auto run = [] {
    GlpEnv glp;
    std::vector<float> losses;
    train_and_snapshot(glp.ec, mc::models::lenet(16), 4, &losses);
    return std::make_tuple(losses, glp.ctx.device().host_now(),
                           glp.ctx.device().device_now());
  };
  EXPECT_EQ(run(), run());
}

TEST(NetworkAgnostic, AllFourPaperNetworksRunUnderGlp4nn) {
  for (const auto& [name, spec] : mc::models::paper_networks()) {
    GlpEnv glp(gpusim::DeviceTable::p100(), {}, kern::ComputeMode::kTimingOnly);
    Net net(spec, glp.ec);
    net.forward();
    net.backward();
    glp.sync();
    // At least one conv scope was profiled and decided.
    EXPECT_FALSE(glp.engine.analyzer_for(glp.ctx)->decisions().empty()) << name;
  }
}

TEST(NetworkAgnostic, CustomParsedNetworkRunsUnchanged) {
  // A net the framework has never seen, defined via the text format.
  const char* text = R"(
    name: "custom"
    layer { name: "data" type: "Data" top: "data" top: "label"
            dataset: "cifar10" batch_size: 12 }
    layer { name: "c1" type: "Convolution" bottom: "data" top: "c1"
            num_output: 8 kernel_size: 3 pad: 1 }
    layer { name: "t1" type: "TanH" bottom: "c1" top: "c1" }
    layer { name: "p1" type: "Pooling" bottom: "c1" top: "p1"
            pool: AVE kernel_size: 2 stride: 2 }
    layer { name: "ip" type: "InnerProduct" bottom: "p1" top: "ip"
            num_output: 10 }
    layer { name: "loss" type: "SoftmaxWithLoss" bottom: "ip" bottom: "label"
            top: "loss" }
  )";
  Env serial;
  GlpEnv glp;
  Net a(mc::parse_net_text(text), serial.ec);
  Net b(mc::parse_net_text(text), glp.ec);
  SgdSolver sa(a, {}), sb(b, {});
  sa.step(3);
  sb.step(3);
  EXPECT_EQ(sa.last_loss(), sb.last_loss());
}

TEST(Speedup, ConvHeavyNetFasterUnderGlp4nnSteadyState) {
  auto iteration_time = [](mc::ExecContext& ec, scuda::Context& ctx) {
    Net net(mc::models::cifar10_quick(100), ec);
    net.forward();
    net.backward();
    ctx.device().synchronize();  // warmup / profiling iteration
    const double t0 = ctx.device().host_now();
    for (int i = 0; i < 2; ++i) {
      net.forward();
      net.backward();
      ctx.device().synchronize();
    }
    return (ctx.device().host_now() - t0) / 2.0;
  };
  Env serial(gpusim::DeviceTable::p100(), kern::ComputeMode::kTimingOnly);
  GlpEnv glp(gpusim::DeviceTable::p100(), {}, kern::ComputeMode::kTimingOnly);
  const double serial_ns = iteration_time(serial.ec, serial.ctx);
  const double glp_ns = iteration_time(glp.ec, glp.ctx);
  EXPECT_LT(glp_ns, serial_ns * 0.8) << "expected ≥1.25x speedup";
}

TEST(Overhead, OneTimeCostsAreTinyVsTraining) {
  // Table 6's claim: T_total / training time < 0.1% — here we assert the
  // structure (one-time, small) rather than the exact ratio.
  GlpEnv glp(gpusim::DeviceTable::p100(), {}, kern::ComputeMode::kTimingOnly);
  Net net(mc::models::cifar10_quick(100), glp.ec);
  net.forward();
  net.backward();
  glp.sync();
  const auto after_first = glp.engine.costs();
  EXPECT_GT(after_first.total_ms(), 0.0);

  for (int i = 0; i < 3; ++i) {
    net.forward();
    net.backward();
    glp.sync();
  }
  const auto after_four = glp.engine.costs();
  // No additional profiling or analysis after the first iteration.
  EXPECT_EQ(after_four.profiling_ms, after_first.profiling_ms);
  EXPECT_EQ(after_four.analysis_ms, after_first.analysis_ms);
}

TEST(Overhead, MemoryBreakdownMatchesFig10Structure) {
  GlpEnv glp(gpusim::DeviceTable::p100(), {}, kern::ComputeMode::kTimingOnly);
  Net net(mc::models::cifar10_quick(50), glp.ec);
  net.forward();
  net.backward();
  glp.sync();
  const auto costs = glp.engine.costs();
  EXPECT_GT(costs.mem_tt_bytes, 0u);
  EXPECT_GT(costs.mem_k_bytes, 0u);
  EXPECT_GT(costs.mem_cupti_bytes, costs.mem_tt_bytes + costs.mem_k_bytes);
  EXPECT_EQ(costs.total_bytes(),
            costs.mem_tt_bytes + costs.mem_k_bytes + costs.mem_cupti_bytes);
}

TEST(MultiGpu, TwoDevicesTrainIndependently) {
  // Fig. 5: GLP4NN supports multiple GPUs sharing a tracker/stream
  // manager with private analyzers/schedulers. Data-parallel replicas on
  // two different devices must both converge and get device-specific
  // stream decisions.
  // NB: devices must outlive the engine (it holds their stream pools).
  scuda::Context gpu_a(gpusim::DeviceTable::p100());
  scuda::Context gpu_b(gpusim::DeviceTable::k40c());
  glp4nn::Glp4nnEngine engine;
  mc::ExecContext ec_a, ec_b;
  ec_a.ctx = &gpu_a;
  ec_a.dispatcher = &engine.scheduler_for(gpu_a);
  ec_b.ctx = &gpu_b;
  ec_b.dispatcher = &engine.scheduler_for(gpu_b);

  Net net_a(mc::models::lenet(8), ec_a);
  Net net_b(mc::models::lenet(8), ec_b);
  SgdSolver sa(net_a, {}), sb(net_b, {});
  sa.step(2);
  sb.step(2);
  EXPECT_EQ(sa.last_loss(), sb.last_loss());  // identical data/seeds

  // Device-private analyzers may reach different stream counts.
  const auto* da = engine.analyzer_for(gpu_a);
  const auto* db = engine.analyzer_for(gpu_b);
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_FALSE(da->decisions().empty());
  EXPECT_FALSE(db->decisions().empty());
}

TEST(Glp4nnEngine, CostsAggregateAcrossDevices) {
  scuda::Context a(gpusim::DeviceTable::p100());
  scuda::Context b(gpusim::DeviceTable::titan_xp());
  glp4nn::Glp4nnEngine engine;
  mc::ExecContext ea, eb;
  ea.ctx = &a;
  ea.dispatcher = &engine.scheduler_for(a);
  ea.mode = kern::ComputeMode::kTimingOnly;
  eb.ctx = &b;
  eb.dispatcher = &engine.scheduler_for(b);
  eb.mode = kern::ComputeMode::kTimingOnly;
  Net na(mc::models::lenet(8), ea);
  Net nb(mc::models::lenet(8), eb);
  na.forward();
  nb.forward();
  a.device().synchronize();
  b.device().synchronize();
  const auto costs = engine.costs();
  EXPECT_GT(costs.analysis_ms, 0.0);
  EXPECT_GT(costs.mem_cupti_bytes, 2 * scupti::ActivityApi::kRuntimeArenaBytes);
}

}  // namespace
