// StreamManager unit tests: pool growth, reuse across scheduler scopes,
// per-device isolation and high-water accounting. The manager backs the
// paper's "concurrent stream pool" (§3.1) — streams are created once and
// reused, never per-iteration.

#include <gtest/gtest.h>

#include "core/glp4nn.hpp"
#include "core/stream_manager.hpp"
#include "simcuda/context.hpp"
#include "test_helpers.hpp"

namespace {

TEST(StreamManager, PoolGrowsAndReuses) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  glp4nn::StreamManager manager;
  EXPECT_EQ(manager.pool_size(ctx), 0);
  const auto a = manager.acquire_slice(ctx, 0, 3, 3);
  EXPECT_EQ(manager.pool_size(ctx), 3);
  const auto b = manager.acquire_slice(ctx, 0, 2, 2);
  EXPECT_EQ(manager.pool_size(ctx), 3);  // reused, not grown
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
  const auto c = manager.acquire_slice(ctx, 0, 5, 5);
  EXPECT_EQ(manager.pool_size(ctx), 5);
  EXPECT_EQ(c[0], a[0]);
  EXPECT_EQ(manager.max_pool_size(), 5);
}

TEST(StreamManager, RejectsOverCapacityRequests) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  glp4nn::StreamManager manager;
  EXPECT_THROW(manager.acquire_slice(ctx, 0, 0, 0), glp::InvalidArgument);
  EXPECT_THROW(manager.acquire_slice(ctx, 0, 129, 129), glp::InvalidArgument);
}

TEST(StreamManager, PerDevicePools) {
  scuda::Context a(gpusim::DeviceTable::p100());
  scuda::Context b(gpusim::DeviceTable::k40c());
  glp4nn::StreamManager manager;
  manager.acquire_slice(a, 0, 4, 4);
  EXPECT_EQ(manager.pool_size(a), 4);
  EXPECT_EQ(manager.pool_size(b), 0);
  manager.acquire_slice(b, 0, 2, 2);
  EXPECT_EQ(manager.pool_size(b), 2);
}

TEST(StreamManager, StreamsAreDistinctAndNotDefault) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  glp4nn::StreamManager manager;
  const auto streams = manager.acquire_slice(ctx, 0, 8, 8);
  ASSERT_EQ(streams.size(), 8u);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_NE(streams[i], gpusim::kDefaultStream) << i;
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      EXPECT_NE(streams[i], streams[j]) << i << " vs " << j;
    }
  }
}

TEST(StreamManager, MaxPoolSizeIsHighWaterAcrossDevices) {
  scuda::Context a(gpusim::DeviceTable::p100());
  scuda::Context b(gpusim::DeviceTable::k40c());
  glp4nn::StreamManager manager;
  EXPECT_EQ(manager.max_pool_size(), 0);
  manager.acquire_slice(a, 0, 6, 6);
  EXPECT_EQ(manager.max_pool_size(), 6);
  manager.acquire_slice(b, 0, 3, 3);
  EXPECT_EQ(manager.max_pool_size(), 6);  // smaller pool doesn't lower it
  manager.acquire_slice(b, 0, 9, 9);
  EXPECT_EQ(manager.max_pool_size(), 9);
  manager.acquire_slice(a, 0, 2, 2);
  EXPECT_EQ(manager.max_pool_size(), 9);  // reuse doesn't lower it
}

TEST(StreamManager, SlicesWithUniformWidthNeverOverlap) {
  // Slots requesting different *used* widths still get ranges laid out on
  // the uniform slice_width grid, so concurrent slots can never share a
  // stream (the multi-tenant isolation invariant).
  scuda::Context ctx(gpusim::DeviceTable::p100());
  glp4nn::StreamManager manager;
  const auto slot0 = manager.acquire_slice(ctx, 0, 4, 4);
  const auto slot1 = manager.acquire_slice(ctx, 1, 4, 2);
  ASSERT_EQ(slot0.size(), 4u);
  ASSERT_EQ(slot1.size(), 2u);
  for (gpusim::StreamId a : slot0) {
    for (gpusim::StreamId b : slot1) EXPECT_NE(a, b);
  }
  // Re-acquiring a slice returns the same streams (pool reuse).
  EXPECT_EQ(manager.acquire_slice(ctx, 1, 4, 2), slot1);
  EXPECT_EQ(manager.pool_size(ctx), 6);  // 4 (slot 0) + 2 used of slot 1
}

TEST(StreamManager, ReusedAcrossSchedulerScopes) {
  // Two dispatch scopes with the same stream demand must not allocate
  // new streams for the second scope — this is the "lightweight" claim.
  scuda::Context ctx(gpusim::DeviceTable::p100());
  glp4nn::SchedulerOptions opts;
  opts.fixed_streams = 4;
  glp4nn::Glp4nnEngine engine(opts);
  glp4nn::RuntimeScheduler& sched = engine.scheduler_for(ctx);

  sched.begin_scope("conv1/fwd", 8);
  const auto lane_a = sched.task_lane(0);
  sched.end_scope();
  EXPECT_EQ(engine.stream_manager().pool_size(ctx), 4);

  sched.begin_scope("conv2/fwd", 8);
  const auto lane_b = sched.task_lane(0);
  sched.end_scope();
  EXPECT_EQ(engine.stream_manager().pool_size(ctx), 4);
  EXPECT_EQ(engine.stream_manager().max_pool_size(), 4);
  EXPECT_EQ(lane_a.stream, lane_b.stream);  // same pool, same assignment
}

}  // namespace
