#include <gtest/gtest.h>

#include "common/check.hpp"

#include "core/resource_tracker.hpp"

namespace {

using glp4nn::ResourceTracker;
using glp4nn::ScopeProfile;

gpusim::LaunchConfig cfg(unsigned blocks, unsigned threads, int regs = 32,
                         std::size_t smem = 0) {
  gpusim::LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  c.regs_per_thread = regs;
  c.smem_static_bytes = smem;
  return c;
}

struct TrackerTest : ::testing::Test {
  TrackerTest() : ctx(gpusim::DeviceTable::p100()) {}
  scuda::Context ctx;
  ResourceTracker tracker;

  void launch(const std::string& name, unsigned blocks, unsigned threads,
              double flops = 1e6) {
    ctx.device().launch_kernel(gpusim::kDefaultStream, name,
                               cfg(blocks, threads), {flops, flops}, {});
  }
};

TEST_F(TrackerTest, AggregatesKernelsByName) {
  tracker.begin_profiling(ctx);
  for (int i = 0; i < 4; ++i) launch("im2col", 18, 256);
  for (int i = 0; i < 4; ++i) launch("sgemm", 12, 128, 5e6);
  ctx.device().synchronize();
  const ScopeProfile p = tracker.end_profiling(ctx, "conv1/fwd");

  EXPECT_EQ(p.scope, "conv1/fwd");
  ASSERT_EQ(p.kernels.size(), 2u);
  EXPECT_EQ(p.total_launches, 8);
  // First-seen order preserved.
  EXPECT_EQ(p.kernels[0].name, "im2col");
  EXPECT_EQ(p.kernels[0].launches, 4);
  EXPECT_EQ(p.kernels[0].config.grid.x, 18u);
  EXPECT_EQ(p.kernels[0].config.block.x, 256u);
  EXPECT_EQ(p.kernels[1].name, "sgemm");
  EXPECT_GT(p.kernels[1].avg_duration_us, p.kernels[0].avg_duration_us);
}

TEST_F(TrackerTest, AvgDurationIsMeanOfTotal) {
  tracker.begin_profiling(ctx);
  launch("k", 10, 256, 1e6);
  launch("k", 10, 256, 1e6);
  ctx.device().synchronize();
  const ScopeProfile p = tracker.end_profiling(ctx, "s");
  ASSERT_EQ(p.kernels.size(), 1u);
  EXPECT_NEAR(p.kernels[0].avg_duration_us * 2,
              p.kernels[0].total_duration_us, 1e-9);
  EXPECT_GT(p.kernels[0].avg_duration_us, 0.0);
}

TEST_F(TrackerTest, KernelsBeforeProfilingAreExcluded) {
  launch("early", 4, 128);
  ctx.device().synchronize();
  tracker.begin_profiling(ctx);
  launch("scoped", 4, 128);
  ctx.device().synchronize();
  const ScopeProfile p = tracker.end_profiling(ctx, "s");
  ASSERT_EQ(p.kernels.size(), 1u);
  EXPECT_EQ(p.kernels[0].name, "scoped");
}

TEST_F(TrackerTest, KernelsLaunchedBeforeButCompletingDuringAreExcluded) {
  // A long kernel launched before begin_profiling completes inside the
  // window; the correlation filter must drop it.
  launch("inflight", 500, 1024, 1e10);
  tracker.begin_profiling(ctx);
  launch("scoped", 4, 128);
  ctx.device().synchronize();
  const ScopeProfile p = tracker.end_profiling(ctx, "s");
  ASSERT_EQ(p.kernels.size(), 1u);
  EXPECT_EQ(p.kernels[0].name, "scoped");
}

TEST_F(TrackerTest, EmptyScopeYieldsEmptyProfile) {
  tracker.begin_profiling(ctx);
  ctx.device().synchronize();
  const ScopeProfile p = tracker.end_profiling(ctx, "empty");
  EXPECT_TRUE(p.kernels.empty());
  EXPECT_EQ(p.total_launches, 0);
}

TEST_F(TrackerTest, DoubleBeginThrows) {
  tracker.begin_profiling(ctx);
  EXPECT_THROW(tracker.begin_profiling(ctx), glp::InvalidArgument);
  tracker.end_profiling(ctx, "s");
}

TEST_F(TrackerTest, EndWithoutBeginThrows) {
  EXPECT_THROW(tracker.end_profiling(ctx, "s"), glp::InvalidArgument);
}

TEST_F(TrackerTest, ProfilingActiveFlag) {
  EXPECT_FALSE(tracker.profiling_active(ctx));
  tracker.begin_profiling(ctx);
  EXPECT_TRUE(tracker.profiling_active(ctx));
  tracker.end_profiling(ctx, "s");
  EXPECT_FALSE(tracker.profiling_active(ctx));
}

TEST_F(TrackerTest, MemoryAccountingGrowsWithRecords) {
  tracker.begin_profiling(ctx);
  for (int i = 0; i < 10; ++i) {
    launch(std::string("k").append(std::to_string(i)), 4, 128);
  }
  ctx.device().synchronize();
  const ScopeProfile p = tracker.end_profiling(ctx, "s");
  EXPECT_EQ(p.mem_tt_bytes, 10 * ResourceTracker::kTimestampBytesPerRecord);
  EXPECT_EQ(tracker.mem_tt_bytes(), p.mem_tt_bytes);
  EXPECT_GT(tracker.mem_k_bytes(), 0u);
  EXPECT_GE(tracker.mem_cupti_bytes(), scupti::ActivityApi::kRuntimeArenaBytes);
  EXPECT_EQ(tracker.records_collected(), 10u);
}

TEST_F(TrackerTest, CuptiMemoryDominates) {
  // Fig. 10's structure: mem_cupti >> mem_tt + mem_K for realistic scopes.
  tracker.begin_profiling(ctx);
  for (int i = 0; i < 100; ++i) launch("k", 4, 128);
  ctx.device().synchronize();
  tracker.end_profiling(ctx, "s");
  EXPECT_GT(tracker.mem_cupti_bytes(),
            10 * (tracker.mem_tt_bytes() + tracker.mem_k_bytes()));
}

TEST_F(TrackerTest, SequentialScopesAccumulateCosts) {
  for (int scope = 0; scope < 3; ++scope) {
    tracker.begin_profiling(ctx);
    launch("k", 4, 128);
    ctx.device().synchronize();
    tracker.end_profiling(ctx, "scope" + std::to_string(scope));
  }
  EXPECT_EQ(tracker.records_collected(), 3u);
  EXPECT_GE(tracker.total_profiling_ms(), 0.0);
}

TEST_F(TrackerTest, MultiDeviceSessionsAreIndependent) {
  scuda::Context ctx2(gpusim::DeviceTable::k40c());
  // A tracker keeps a profiling session on every device it has profiled
  // until it dies, so this one is declared after ctx2 to die first (the
  // fixture's tracker would outlive ctx2).
  ResourceTracker shared;
  shared.begin_profiling(ctx);
  shared.begin_profiling(ctx2);  // allowed: different device
  launch("on1", 4, 128);
  ctx2.device().launch_kernel(gpusim::kDefaultStream, "on2", cfg(4, 128),
                              {1e6, 1e6}, {});
  ctx.device().synchronize();
  ctx2.device().synchronize();
  const ScopeProfile p1 = shared.end_profiling(ctx, "a");
  const ScopeProfile p2 = shared.end_profiling(ctx2, "b");
  ASSERT_EQ(p1.kernels.size(), 1u);
  ASSERT_EQ(p2.kernels.size(), 1u);
  EXPECT_EQ(p1.kernels[0].name, "on1");
  EXPECT_EQ(p2.kernels[0].name, "on2");
}

TEST_F(TrackerTest, ConfigFieldsSurviveRoundTrip) {
  tracker.begin_profiling(ctx);
  ctx.device().launch_kernel(gpusim::kDefaultStream, "fat",
                             cfg(7, 192, 77, 4096), {1e6, 1e6}, {});
  ctx.device().synchronize();
  const ScopeProfile p = tracker.end_profiling(ctx, "s");
  ASSERT_EQ(p.kernels.size(), 1u);
  EXPECT_EQ(p.kernels[0].config.regs_per_thread, 77);
  EXPECT_EQ(p.kernels[0].config.smem_static_bytes, 4096u);
  EXPECT_EQ(p.kernels[0].config.total_blocks(), 7u);
}

}  // namespace
