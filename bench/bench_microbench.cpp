// Wall-clock microbenchmarks (google-benchmark) of the host-side
// machinery whose real cost matters: the MILP the kernel analyzer solves
// (T_a), the resource tracker's record parsing (T_p), the simulator's
// event-loop throughput, and the host math kernels.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/analytical_model.hpp"
#include "core/resource_tracker.hpp"
#include "kernels/cpu_math.hpp"
#include "milp/branch_and_bound.hpp"

namespace {

glp4nn::KernelStats make_kernel(const std::string& name, unsigned blocks,
                                unsigned threads, double dur) {
  glp4nn::KernelStats k;
  k.name = name;
  k.config.grid = {blocks, 1, 1};
  k.config.block = {threads, 1, 1};
  k.launches = 1;
  k.avg_duration_us = dur;
  return k;
}

// T_a: the analytical model end to end (MILP build + branch & bound).
void BM_AnalyticalModel(benchmark::State& state) {
  glp4nn::AnalyticalModel model(gpusim::DeviceTable::p100());
  std::vector<glp4nn::KernelStats> kernels;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    kernels.push_back(make_kernel(std::string("k").append(std::to_string(i)),
                                  4 + static_cast<unsigned>(i) * 3, 256,
                                  10.0 + i * 7.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.analyze("scope", kernels));
  }
}
BENCHMARK(BM_AnalyticalModel)->Arg(1)->Arg(3)->Arg(6);

// Raw branch & bound on a knapsack.
void BM_BranchAndBound(benchmark::State& state) {
  milp::Problem p;
  glp::Rng rng(7);
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const int v = p.add_variable(0, 10, rng.uniform(1, 10), true);
    row.emplace_back(v, rng.uniform(1, 5));
  }
  p.add_constraint(row, 0, 25);
  const milp::BranchAndBoundSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK(BM_BranchAndBound)->Arg(2)->Arg(5)->Arg(8);

// T_p: tracker profiling of a per-sample conv scope.
void BM_TrackerProfileScope(benchmark::State& state) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  glp4nn::ResourceTracker tracker;
  gpusim::LaunchConfig cfg;
  cfg.grid = {18, 1, 1};
  cfg.block = {256, 1, 1};
  const int launches = static_cast<int>(state.range(0));
  for (auto _ : state) {
    tracker.begin_profiling(ctx);
    for (int i = 0; i < launches; ++i) {
      ctx.device().launch_kernel(gpusim::kDefaultStream,
                                 i % 2 ? "sgemm_64x64_nn" : "im2col_gpu_kernel",
                                 cfg, {1e6, 1e6}, {});
    }
    ctx.device().synchronize();
    benchmark::DoNotOptimize(tracker.end_profiling(ctx, "conv/fwd"));
  }
  state.SetItemsProcessed(state.iterations() * launches);
}
BENCHMARK(BM_TrackerProfileScope)->Arg(64)->Arg(512);

// Simulator event-loop throughput: kernel launches retired per second.
void BM_SimulatorLaunchThroughput(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    scuda::Context ctx(gpusim::DeviceTable::p100());
    std::vector<gpusim::StreamId> ids;
    for (int i = 0; i < streams; ++i) ids.push_back(ctx.device().create_stream());
    gpusim::LaunchConfig cfg;
    cfg.grid = {8, 1, 1};
    cfg.block = {256, 1, 1};
    state.ResumeTiming();
    for (int i = 0; i < 2000; ++i) {
      ctx.device().launch_kernel(ids[static_cast<std::size_t>(i % streams)], "k",
                                 cfg, {1e6, 1e5}, {});
    }
    ctx.device().synchronize();
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SimulatorLaunchThroughput)->Arg(1)->Arg(8);

// Host GEMM throughput (the numeric experiments' bottleneck).
void BM_HostGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.0f);
  std::vector<float> b(a), c(a);
  for (auto _ : state) {
    kern::cpu::gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
                    c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
}
BENCHMARK(BM_HostGemm)->Arg(64)->Arg(256);

// im2col, the other hot host kernel.
void BM_HostIm2col(benchmark::State& state) {
  const int c = 32, h = 32, w = 32, k = 5;
  std::vector<float> im(static_cast<std::size_t>(c) * h * w, 1.0f);
  std::vector<float> col(static_cast<std::size_t>(c) * k * k * h * w);
  for (auto _ : state) {
    kern::cpu::im2col(im.data(), c, h, w, k, k, 2, 2, 1, 1, col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_HostIm2col);

}  // namespace

BENCHMARK_MAIN();
