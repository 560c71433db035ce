#include <functional>
// Tests of the paper's analytical model (§3.2): the Eq. 7/8 helper
// formulas, and the property that every decision satisfies the hard
// constraints Eq. 4–6 while being MILP-optimal (cross-checked against
// brute force on small instances).

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "common/rng.hpp"
#include "core/analytical_model.hpp"
#include "core/kernel_analyzer.hpp"

namespace {

using glp4nn::AnalyticalModel;
using glp4nn::ConcurrencyDecision;
using glp4nn::KernelAnalyzer;
using glp4nn::KernelStats;
using glp4nn::Objective;
using glp4nn::ScopeProfile;

KernelStats kernel(const std::string& name, unsigned blocks, unsigned threads,
                   double duration_us, std::size_t smem = 0) {
  KernelStats k;
  k.name = name;
  k.config.grid = {blocks, 1, 1};
  k.config.block = {threads, 1, 1};
  k.config.smem_static_bytes = smem;
  k.launches = 1;
  k.avg_duration_us = duration_us;
  k.total_duration_us = duration_us;
  return k;
}

// --- Eq. 8 -----------------------------------------------------------------------

TEST(Eq8, BetaPerSmIsFlooredBlockRatio) {
  AnalyticalModel model(gpusim::DeviceTable::p100());  // 56 SMs
  EXPECT_EQ(model.beta_per_sm(kernel("k", 112, 256, 10)), 2);
  EXPECT_EQ(model.beta_per_sm(kernel("k", 100, 256, 10)), 1);  // floor
  // Deviation from the paper documented in the header: floored at 1.
  EXPECT_EQ(model.beta_per_sm(kernel("k", 3, 256, 10)), 1);
}

// --- Eq. 7 -----------------------------------------------------------------------

TEST(Eq7, LaunchRateBoundDominatesForShortKernels) {
  auto props = gpusim::DeviceTable::p100();  // T_launch = 5 us
  AnalyticalModel model(props);
  // A 12 us kernel with tiny footprint: bound = ceil(12/5) = 3.
  EXPECT_EQ(model.upper_bound(kernel("k", 2, 64, 12.0)), 3);
  // A 2 us kernel: ceil(2/5) = 1 — cannot overlap with itself.
  EXPECT_EQ(model.upper_bound(kernel("k", 2, 64, 2.0)), 1);
}

TEST(Eq7, ThreadCapacityBoundDominatesForFatKernels) {
  auto props = gpusim::DeviceTable::p100();  // τ_max·#SM = 114688
  AnalyticalModel model(props);
  // 1024 threads × 100 blocks = 102400 active threads → bound 1.
  EXPECT_EQ(model.upper_bound(kernel("k", 100, 1024, 1e6)), 1);
}

TEST(Eq7, SharedMemoryBoundApplies) {
  auto props = gpusim::DeviceTable::p100();  // sm_max·#SM = 56·64K
  AnalyticalModel model(props);
  // 32 KiB per block × 60 blocks → smem bound = 56·64K/(32K·60) = 1.
  const int bound = model.upper_bound(kernel("k", 60, 64, 1e6, 32 * 1024));
  EXPECT_EQ(bound, 1);
}

TEST(Eq7, ClampedToConcurrencyDegree) {
  auto props = gpusim::DeviceTable::p100();
  AnalyticalModel model(props);
  // An extremely long, tiny kernel: launch bound huge → clamp to C = 128.
  EXPECT_EQ(model.upper_bound(kernel("k", 1, 32, 1e9)), 128);
}

TEST(Eq7, BoundDiffersAcrossDevices) {
  // The same kernel gets different bounds on different GPUs — the core of
  // the paper's "optimal stream count varies per device" observation.
  const KernelStats k = kernel("k", 8, 256, 40.0);
  AnalyticalModel k40(gpusim::DeviceTable::k40c());      // T_launch 7
  AnalyticalModel p100(gpusim::DeviceTable::p100());     // T_launch 5
  EXPECT_NE(k40.upper_bound(k), p100.upper_bound(k));
}

// --- decisions ---------------------------------------------------------------------

TEST(Analyze, PaperWorkflowExampleYieldsThree) {
  // Fig. 6's example: the conv1 scope has three kernel types on K40C and
  // the analyzer outputs 3 (each short kernel bound to 1 instance).
  AnalyticalModel model(gpusim::DeviceTable::k40c());
  std::vector<KernelStats> kernels = {
      kernel("im2col", 18, 256, 4.0),  // < T_launch → #K = 1
      kernel("sgemm", 12, 128, 6.0),
      kernel("gemmk", 4, 128, 5.0),
  };
  const ConcurrencyDecision d = model.analyze("conv1/fwd", kernels);
  EXPECT_EQ(d.stream_count, 3);
  for (const auto& pk : d.per_kernel) EXPECT_EQ(pk.count, 1);
}

TEST(Analyze, LongKernelsGetMultipleInstances) {
  AnalyticalModel model(gpusim::DeviceTable::p100());
  const ConcurrencyDecision d =
      model.analyze("s", {kernel("gemm", 4, 256, 40.0)});
  // Launch bound = 8; thread constraint allows 2048/256 = 8 → 8 streams.
  EXPECT_EQ(d.stream_count, 8);
}

TEST(Analyze, DecisionSatisfiesEq4And5And6) {
  auto props = gpusim::DeviceTable::p100();
  AnalyticalModel model(props);
  std::vector<KernelStats> kernels = {
      kernel("a", 60, 512, 50.0, 8 * 1024),
      kernel("b", 10, 256, 30.0, 4 * 1024),
      kernel("c", 200, 128, 80.0),
  };
  const ConcurrencyDecision d = model.analyze("s", kernels);

  double threads = 0, smem = 0;
  int total = 0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& pk = d.per_kernel[i];
    EXPECT_LE(pk.count, pk.upper_bound);   // Eq. 7
    EXPECT_GE(pk.count, 0);
    threads += static_cast<double>(pk.count) * pk.beta_per_sm *
               kernels[i].config.threads_per_block();
    smem += static_cast<double>(pk.count) * pk.beta_per_sm *
            kernels[i].config.smem_per_block();
    total += pk.count;
  }
  EXPECT_LE(threads, props.max_threads_per_sm);      // Eq. 5
  EXPECT_LE(smem, static_cast<double>(props.shared_mem_per_sm));  // Eq. 4
  EXPECT_GE(total, 1);                               // Eq. 6
  EXPECT_LE(total, props.max_concurrent_kernels);
  EXPECT_EQ(d.stream_count, total);                  // Eq. 9
  EXPECT_GT(d.occupancy, 0.0);
  EXPECT_LE(d.occupancy, 1.0);
}

TEST(Analyze, InfeasibleModelFallsBackToSerial) {
  // A kernel whose per-SM footprint alone exceeds τ_max makes Eqs. 5+6
  // unsatisfiable; the model must degrade to one stream, not crash.
  AnalyticalModel model(gpusim::DeviceTable::p100());
  const ConcurrencyDecision d =
      model.analyze("fat", {kernel("fat", 560, 1024, 1e4)});  // β = 10
  EXPECT_EQ(d.stream_count, 1);
}

TEST(Analyze, EmptyKernelSetThrows) {
  AnalyticalModel model(gpusim::DeviceTable::p100());
  EXPECT_THROW(model.analyze("s", {}), glp::InvalidArgument);
}

// Property: on random kernel sets the MILP solution matches a brute-force
// maximisation of Eq. 3 under Eqs. 4–7.
class ModelOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelOptimality, MatchesBruteForce) {
  glp::Rng rng(GetParam());
  const auto devices = gpusim::DeviceTable::all();
  const auto props = devices[rng.next_below(devices.size())];
  AnalyticalModel model(props);

  std::vector<KernelStats> kernels;
  const int n = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n; ++i) {
    kernels.push_back(kernel("k" + std::to_string(i),
                             1 + static_cast<unsigned>(rng.next_below(300)),
                             32u << rng.next_below(5),
                             rng.uniform(1.0f, 60.0f),
                             rng.next_below(2) ? 2048u << rng.next_below(3) : 0u));
  }
  const ConcurrencyDecision d = model.analyze("s", kernels);

  // Brute force over the Eq. 7 boxes (bounded ≤ 24 per var for tractability).
  std::vector<int> ub, beta;
  std::vector<double> tau, smem;
  for (const auto& k : kernels) {
    ub.push_back(std::min(model.upper_bound(k), 24));
    beta.push_back(model.beta_per_sm(k));
    tau.push_back(static_cast<double>(k.config.threads_per_block()));
    smem.push_back(static_cast<double>(k.config.smem_per_block()));
  }
  double best = -1.0;
  std::vector<int> x(static_cast<std::size_t>(n), 0);
  std::function<void(int)> rec = [&](int i) {
    if (i == n) {
      double threads = 0, sm = 0, obj = 0;
      int total = 0;
      for (int j = 0; j < n; ++j) {
        threads += x[static_cast<std::size_t>(j)] * tau[static_cast<std::size_t>(j)] * beta[static_cast<std::size_t>(j)];
        sm += x[static_cast<std::size_t>(j)] * smem[static_cast<std::size_t>(j)] * beta[static_cast<std::size_t>(j)];
        obj += x[static_cast<std::size_t>(j)] * tau[static_cast<std::size_t>(j)] * beta[static_cast<std::size_t>(j)];
        total += x[static_cast<std::size_t>(j)];
      }
      if (threads > props.max_threads_per_sm ||
          sm > static_cast<double>(props.shared_mem_per_sm) || total < 1 ||
          total > props.max_concurrent_kernels) {
        return;
      }
      best = std::max(best, obj);
      return;
    }
    for (int v = 0; v <= ub[static_cast<std::size_t>(i)]; ++v) {
      x[static_cast<std::size_t>(i)] = v;
      rec(i + 1);
    }
  };
  rec(0);

  // The MILP searched the full box (bounds may exceed 24); it must do at
  // least as well as the clipped brute force. When even the brute force
  // found nothing feasible, the model must have used its serial fallback.
  if (best < 0.0) {
    EXPECT_EQ(d.stream_count, 1);
  } else {
    EXPECT_GE(d.objective + 1e-6, best) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ModelOptimality,
                         ::testing::Range<std::uint64_t>(0, 30));

// --- duration-weighted objective (paper §6) ----------------------------------------

TEST(DurationWeighted, SatisfiesSameConstraints) {
  const auto props = gpusim::DeviceTable::p100();
  std::vector<KernelStats> kernels = {
      kernel("long", 8, 256, 60.0),
      kernel("short", 4, 128, 2.0),
  };
  const AnalyticalModel model(props, Objective::kDurationWeighted);
  const ConcurrencyDecision d = model.analyze("s", kernels);
  double threads = 0;
  int total = 0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_LE(d.per_kernel[i].count, model.upper_bound(kernels[i]));
    threads += static_cast<double>(d.per_kernel[i].count) *
               model.beta_per_sm(kernels[i]) *
               kernels[i].config.threads_per_block();
    total += d.per_kernel[i].count;
  }
  EXPECT_LE(threads, props.max_threads_per_sm);
  EXPECT_GE(total, 1);
  EXPECT_EQ(d.stream_count, total);
  // Eqs. 1–2 read the solved Σ τ_K·β_K·#K, not the weighted objective.
  EXPECT_GT(d.occupancy, 0.0);
  EXPECT_LE(d.occupancy, 1.0);
  EXPECT_DOUBLE_EQ(d.occupancy, threads / props.max_threads_per_sm);
}

TEST(DurationWeighted, FavoursTheDominantKernel) {
  // With τ budget for only a few instances, the weighted objective spends
  // it on the long kernel rather than splitting by raw thread count.
  const auto props = gpusim::DeviceTable::p100();
  std::vector<KernelStats> kernels = {
      kernel("long", 200, 512, 100.0),   // heavy AND long
      kernel("short", 200, 512, 6.0),    // same footprint, short
  };
  const ConcurrencyDecision d =
      AnalyticalModel(props, Objective::kDurationWeighted).analyze("s", kernels);
  EXPECT_GE(d.per_kernel[0].count, d.per_kernel[1].count);
  EXPECT_GT(d.per_kernel[0].count, 0);
}

TEST(DurationWeighted, PluggableViaKernelAnalyzer) {
  KernelAnalyzer analyzer(gpusim::DeviceTable::p100(),
                          Objective::kDurationWeighted);
  ScopeProfile profile;
  profile.scope = "s";
  profile.kernels = {kernel("a", 4, 128, 20.0)};
  EXPECT_GE(analyzer.decide(profile).stream_count, 1);
}

// --- analyzer cache ----------------------------------------------------------------

TEST(KernelAnalyzer, CachesDecisionsPerScope) {
  KernelAnalyzer analyzer(gpusim::DeviceTable::p100());
  ScopeProfile profile;
  profile.scope = "conv1/fwd";
  profile.kernels = {kernel("a", 4, 128, 20.0)};

  EXPECT_EQ(analyzer.decision("conv1/fwd"), nullptr);
  const ConcurrencyDecision& d1 = analyzer.decide(profile);
  EXPECT_EQ(analyzer.decision("conv1/fwd"), &d1);
  const double t_a = analyzer.total_analysis_ms();

  const ConcurrencyDecision& d2 = analyzer.decide(profile);
  EXPECT_EQ(&d1, &d2);  // same cached object
  EXPECT_EQ(analyzer.total_analysis_ms(), t_a);  // no re-analysis
}

TEST(KernelAnalyzer, SolveMemoAnswersReplicatedScopeUnderBothObjectives) {
  // A replicated layer (same kernels, same T_K bits, scope-relative
  // names) is one solve and one memo hit, whichever objective the
  // analyzer was built with.
  for (const Objective objective :
       {Objective::kThreads, Objective::kDurationWeighted}) {
    KernelAnalyzer analyzer(gpusim::DeviceTable::p100(), objective);
    ScopeProfile conv1, conv3;
    conv1.scope = "conv1/fwd";
    conv1.kernels = {kernel("conv1/fwd/im2col", 254, 512, 10.0),
                     kernel("conv1/fwd/sgemm", 6, 256, 493.0)};
    conv3.scope = "conv3/fwd";
    conv3.kernels = {kernel("conv3/fwd/im2col", 254, 512, 10.0),
                     kernel("conv3/fwd/sgemm", 6, 256, 493.0)};
    const ConcurrencyDecision& d1 = analyzer.decide(conv1);
    const ConcurrencyDecision& d3 = analyzer.decide(conv3);
    EXPECT_EQ(analyzer.solver_calls(), 1u);
    EXPECT_EQ(analyzer.solve_cache_hits(), 1u);
    EXPECT_EQ(d3.stream_count, d1.stream_count);
    EXPECT_EQ(d3.occupancy, d1.occupancy);
    EXPECT_EQ(d3.per_kernel[1].name, "conv3/fwd/sgemm");
    EXPECT_EQ(d3.per_kernel[1].count, d1.per_kernel[1].count);
  }
}

TEST(KernelAnalyzer, DecisionsMapExposed) {
  KernelAnalyzer analyzer(gpusim::DeviceTable::p100());
  ScopeProfile p1, p2;
  p1.scope = "a";
  p1.kernels = {kernel("x", 4, 128, 20.0)};
  p2.scope = "b";
  p2.kernels = {kernel("y", 4, 128, 30.0)};
  analyzer.decide(p1);
  analyzer.decide(p2);
  EXPECT_EQ(analyzer.decisions().size(), 2u);
  EXPECT_NE(analyzer.decision("a"), nullptr);
  EXPECT_EQ(analyzer.decision("zzz"), nullptr);
}

}  // namespace
