#include <gtest/gtest.h>

#include "common/check.hpp"

#include "gpusim/engine.hpp"

namespace {

using gpusim::Dim3;
using gpusim::KernelCost;
using gpusim::kDefaultStream;
using gpusim::LaunchConfig;
using gpusim::SimDevice;

LaunchConfig cfg(unsigned blocks, unsigned threads, std::size_t smem = 0) {
  LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  c.smem_static_bytes = smem;
  return c;
}

KernelCost flops(double f) { return KernelCost{f, f}; }

// --- basic execution --------------------------------------------------------------

TEST(Engine, KernelRunsWorkFunctorOnce) {
  SimDevice dev(gpusim::DeviceTable::p100());
  int runs = 0;
  dev.launch_kernel(kDefaultStream, "k", cfg(10, 256), flops(1e6), [&] { ++runs; });
  EXPECT_EQ(runs, 0);  // asynchronous
  dev.synchronize();
  EXPECT_EQ(runs, 1);
}

TEST(Engine, TimeAdvancesWithWork) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.launch_kernel(kDefaultStream, "k", cfg(100, 256), flops(1e9), {});
  dev.synchronize();
  EXPECT_GT(dev.device_now(), 0.0);
  EXPECT_GE(dev.host_now(), dev.device_now());
}

TEST(Engine, SameStreamKernelsRunInOrder) {
  SimDevice dev(gpusim::DeviceTable::p100());
  std::vector<int> order;
  const auto s = dev.create_stream();
  for (int i = 0; i < 8; ++i) {
    dev.launch_kernel(s, std::string("k").append(std::to_string(i)),
                      cfg(4, 128), flops(1e5),
                      [&order, i] { order.push_back(i); });
  }
  dev.synchronize();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, SameStreamKernelsNeverOverlapInTimeline) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  const auto s = dev.create_stream();
  for (int i = 0; i < 5; ++i) {
    dev.launch_kernel(s, "k", cfg(50, 256), flops(1e7), {});
  }
  dev.synchronize();
  const auto& recs = dev.timeline().kernels();
  ASSERT_EQ(recs.size(), 5u);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i].start_ns, recs[i - 1].end_ns - 1e-6);
  }
}

TEST(Engine, DifferentStreamsOverlap) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  // Two small kernels that underutilise the device.
  dev.launch_kernel(s1, "a", cfg(8, 256), flops(5e7), {});
  dev.launch_kernel(s2, "b", cfg(8, 256), flops(5e7), {});
  dev.synchronize();
  const auto& recs = dev.timeline().kernels();
  ASSERT_EQ(recs.size(), 2u);
  const double overlap = std::min(recs[0].end_ns, recs[1].end_ns) -
                         std::max(recs[0].start_ns, recs[1].start_ns);
  EXPECT_GT(overlap, 0.0);
}

TEST(Engine, ConcurrencySpeedsUpUnderutilisedKernels) {
  // N small kernels serial vs across N streams: concurrent must be faster.
  auto run = [](bool concurrent) {
    SimDevice dev(gpusim::DeviceTable::p100());
    std::vector<gpusim::StreamId> streams;
    for (int i = 0; i < 8; ++i) {
      streams.push_back(concurrent ? dev.create_stream() : kDefaultStream);
    }
    for (int i = 0; i < 32; ++i) {
      dev.launch_kernel(streams[static_cast<std::size_t>(i % 8)], "k",
                        cfg(6, 256), flops(4e7), {});
    }
    dev.synchronize();
    return dev.device_now();
  };
  const double serial = run(false);
  const double conc = run(true);
  EXPECT_LT(conc, serial * 0.55) << "expected ≥ ~2x speedup from overlap";
}

TEST(Engine, SaturatedKernelGainsNothingFromStreams) {
  // Kernels that already fill the device cannot speed up.
  auto run = [](bool concurrent) {
    SimDevice dev(gpusim::DeviceTable::p100());
    const auto s1 = concurrent ? dev.create_stream() : kDefaultStream;
    const auto s2 = concurrent ? dev.create_stream() : kDefaultStream;
    dev.launch_kernel(s1, "a", cfg(512, 1024), flops(1e10), {});
    dev.launch_kernel(s2, "b", cfg(512, 1024), flops(1e10), {});
    dev.synchronize();
    return dev.device_now();
  };
  EXPECT_NEAR(run(true) / run(false), 1.0, 0.05);
}

// --- default stream semantics ---------------------------------------------------

TEST(Engine, DefaultStreamBarriersOtherStreams) {
  SimDevice dev(gpusim::DeviceTable::p100());
  std::vector<std::string> order;
  const auto s = dev.create_stream();
  dev.launch_kernel(s, "before", cfg(4, 128), flops(1e6),
                    [&] { order.push_back("before"); });
  dev.launch_kernel(kDefaultStream, "legacy", cfg(4, 128), flops(1e6),
                    [&] { order.push_back("legacy"); });
  dev.launch_kernel(s, "after", cfg(4, 128), flops(1e6),
                    [&] { order.push_back("after"); });
  dev.synchronize();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "before");
  EXPECT_EQ(order[1], "legacy");
  EXPECT_EQ(order[2], "after");
}

TEST(Engine, DefaultStreamRecordActsAsAsyncBarrier) {
  SimDevice dev(gpusim::DeviceTable::p100());
  std::vector<std::string> order;
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  dev.launch_kernel(s1, "w1", cfg(8, 256), flops(1e8),
                    [&] { order.push_back("w1"); });
  dev.record_event(kDefaultStream);  // barrier
  dev.launch_kernel(s2, "w2", cfg(8, 256), flops(1e6),
                    [&] { order.push_back("w2"); });
  dev.synchronize();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "w1");  // w2 must wait for the barrier despite being shorter
}

// --- events ------------------------------------------------------------------------

TEST(Engine, EventCompletesAfterPriorStreamWork) {
  SimDevice dev(gpusim::DeviceTable::p100());
  const auto s = dev.create_stream();
  bool ran = false;
  dev.launch_kernel(s, "k", cfg(4, 128), flops(1e7), [&] { ran = true; });
  const auto ev = dev.record_event(s);
  EXPECT_FALSE(dev.event_complete(ev));
  dev.synchronize_event(ev);
  EXPECT_TRUE(dev.event_complete(ev));
  EXPECT_TRUE(ran);
}

TEST(Engine, WaitEventOrdersAcrossStreams) {
  SimDevice dev(gpusim::DeviceTable::p100());
  std::vector<std::string> order;
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  dev.launch_kernel(s1, "slow", cfg(8, 256), flops(1e9),
                    [&] { order.push_back("slow"); });
  const auto ev = dev.record_event(s1);
  dev.wait_event(s2, ev);
  dev.launch_kernel(s2, "fast", cfg(2, 64), flops(1e3),
                    [&] { order.push_back("fast"); });
  dev.synchronize();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "slow");
}

TEST(Engine, WaitOnUnknownEventThrows) {
  SimDevice dev(gpusim::DeviceTable::p100());
  const auto s = dev.create_stream();
  EXPECT_THROW(dev.wait_event(s, 12345), glp::InvalidArgument);
  EXPECT_THROW(dev.synchronize_event(999), glp::InvalidArgument);
}

// --- streams -------------------------------------------------------------------------

TEST(Engine, StreamLifecycle) {
  SimDevice dev(gpusim::DeviceTable::p100());
  EXPECT_EQ(dev.stream_count(), 1);  // default
  const auto s = dev.create_stream();
  EXPECT_EQ(dev.stream_count(), 2);
  EXPECT_TRUE(dev.stream_idle(s));
  dev.launch_kernel(s, "k", cfg(4, 128), flops(1e6), {});
  EXPECT_FALSE(dev.stream_idle(s));
  dev.destroy_stream(s);  // synchronises internally
  EXPECT_EQ(dev.stream_count(), 1);
}

TEST(Engine, CannotDestroyDefaultStream) {
  SimDevice dev(gpusim::DeviceTable::p100());
  EXPECT_THROW(dev.destroy_stream(kDefaultStream), glp::InvalidArgument);
}

TEST(Engine, SubmitToUnknownStreamThrows) {
  SimDevice dev(gpusim::DeviceTable::p100());
  EXPECT_THROW(dev.launch_kernel(99, "k", cfg(1, 32), flops(1), {}),
               glp::InvalidArgument);
}

// --- launch validation ------------------------------------------------------------

TEST(Engine, RejectsOversizedBlocks) {
  SimDevice dev(gpusim::DeviceTable::p100());
  EXPECT_THROW(dev.launch_kernel(kDefaultStream, "k", cfg(1, 2048), flops(1), {}),
               glp::InvalidArgument);
}

TEST(Engine, RejectsEmptyGrid) {
  SimDevice dev(gpusim::DeviceTable::p100());
  EXPECT_THROW(dev.launch_kernel(kDefaultStream, "k", cfg(0, 128), flops(1), {}),
               glp::InvalidArgument);
}

TEST(Engine, RejectsExcessSharedMemory) {
  SimDevice dev(gpusim::DeviceTable::p100());
  EXPECT_THROW(
      dev.launch_kernel(kDefaultStream, "k", cfg(1, 128, 128 * 1024), flops(1), {}),
      glp::InvalidArgument);
}

// --- host clock / launch overhead ---------------------------------------------------

TEST(Engine, LaunchOverheadAdvancesHostClock) {
  auto props = gpusim::DeviceTable::p100();
  SimDevice dev(props);
  const double before = dev.host_now();
  for (int i = 0; i < 10; ++i) {
    dev.launch_kernel(kDefaultStream, "k", cfg(1, 32), flops(1e3), {});
  }
  EXPECT_NEAR(dev.host_now() - before,
              10 * props.kernel_launch_overhead_us * 1000.0, 1e-6);
}

TEST(Engine, HostAdvanceMovesHostOnly) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.host_advance(5000.0);
  EXPECT_GE(dev.host_now(), 5000.0);
  EXPECT_EQ(dev.device_now(), 0.0);
}

TEST(Engine, ShortKernelsSerialisedByLaunchGap) {
  // Kernels shorter than T_launch cannot overlap even on many streams —
  // the paper's explanation for the ~2 ms layer regressions (§4.2.1).
  auto props = gpusim::DeviceTable::p100();
  SimDevice dev(props);
  dev.timeline().set_enabled(true);
  std::vector<gpusim::StreamId> streams;
  for (int i = 0; i < 4; ++i) streams.push_back(dev.create_stream());
  for (int i = 0; i < 8; ++i) {
    // ~1.3 us of compute vs 5 us launch overhead.
    dev.launch_kernel(streams[static_cast<std::size_t>(i % 4)], "tiny",
                      cfg(1, 64), {2e5, 100.0}, {});
  }
  dev.synchronize();
  const auto& recs = dev.timeline().kernels();
  int overlapping = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    for (std::size_t j = i + 1; j < recs.size(); ++j) {
      const double ov = std::min(recs[i].end_ns, recs[j].end_ns) -
                        std::max(recs[i].start_ns, recs[j].start_ns);
      if (ov > 1.0) ++overlapping;
    }
  }
  EXPECT_EQ(overlapping, 0);
}

// --- copies -------------------------------------------------------------------------

TEST(Engine, CopyTimingMatchesBandwidth) {
  auto props = gpusim::DeviceTable::p100();
  SimDevice dev(props);
  dev.timeline().set_enabled(true);
  dev.memcpy_async(kDefaultStream, 12 << 20, true, {});
  dev.synchronize();
  const auto& recs = dev.timeline().copies();
  ASSERT_EQ(recs.size(), 1u);
  const double expect_ns = static_cast<double>(12 << 20) / props.pcie_bandwidth_gbs;
  EXPECT_NEAR(recs[0].end_ns - recs[0].start_ns, expect_ns, 1.0);
}

TEST(Engine, CopyEnginesSerialisePerDirection) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  dev.memcpy_async(s1, 1 << 20, true, {});
  dev.memcpy_async(s2, 1 << 20, true, {});
  dev.synchronize();
  const auto& recs = dev.timeline().copies();
  ASSERT_EQ(recs.size(), 2u);
  const double ov = std::min(recs[0].end_ns, recs[1].end_ns) -
                    std::max(recs[0].start_ns, recs[1].start_ns);
  EXPECT_LE(ov, 1e-6);
}

TEST(Engine, OppositeDirectionCopiesOverlap) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  dev.memcpy_async(s1, 4 << 20, true, {});
  dev.memcpy_async(s2, 4 << 20, false, {});
  dev.synchronize();
  const auto& recs = dev.timeline().copies();
  ASSERT_EQ(recs.size(), 2u);
  const double ov = std::min(recs[0].end_ns, recs[1].end_ns) -
                    std::max(recs[0].start_ns, recs[1].start_ns);
  EXPECT_GT(ov, 0.0);
}

// --- concurrency degree -------------------------------------------------------------

TEST(Engine, ConcurrencyDegreeCapsResidentKernels) {
  auto props = gpusim::DeviceTable::p100();
  props.max_concurrent_kernels = 2;
  SimDevice dev(props);
  dev.timeline().set_enabled(true);
  std::vector<gpusim::StreamId> streams;
  for (int i = 0; i < 4; ++i) streams.push_back(dev.create_stream());
  for (int i = 0; i < 4; ++i) {
    dev.launch_kernel(streams[static_cast<std::size_t>(i)], "k", cfg(2, 128),
                      flops(1e8), {});
  }
  dev.synchronize();
  // With C=2, at most two kernels may overlap at any instant.
  const auto& recs = dev.timeline().kernels();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    int concurrent = 0;
    const double mid = (recs[i].start_ns + recs[i].end_ns) / 2.0;
    for (const auto& r : recs) {
      if (r.start_ns <= mid && mid < r.end_ns) ++concurrent;
    }
    EXPECT_LE(concurrent, 2);
  }
}

// --- roofline ------------------------------------------------------------------------

TEST(Engine, RooflineComputeVsMemoryBound) {
  SimDevice p100(gpusim::DeviceTable::p100());
  const LaunchConfig c = cfg(100, 256);
  // Compute-heavy: flops dominate.
  const double w1 = p100.work_thread_cycles(c, {1e9, 1e3});
  EXPECT_NEAR(w1, 5e8, 1.0);
  // Memory-heavy: bytes dominate; scaled by lanes*clock/bandwidth.
  const double w2 = p100.work_thread_cycles(c, {1e3, 1e9});
  EXPECT_GT(w2, 5e8);
}

TEST(Engine, RooflineDependsOnDevice) {
  SimDevice k40(gpusim::DeviceTable::k40c());
  SimDevice p100(gpusim::DeviceTable::p100());
  const LaunchConfig c = cfg(100, 256);
  const KernelCost cost{1e8, 4e7};
  // Same kernel, different devices → different durations when run alone.
  auto time_on = [&](SimDevice& dev) {
    dev.launch_kernel(kDefaultStream, "k", c, cost, {});
    dev.synchronize();
    return dev.device_now();
  };
  EXPECT_GT(time_on(k40), time_on(p100));
}

// --- stats ---------------------------------------------------------------------------

TEST(Engine, UtilisationStatsConserveWork) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.launch_kernel(kDefaultStream, "k", cfg(200, 256), flops(1e9), {});
  dev.synchronize();
  const auto& s = dev.stats();
  EXPECT_EQ(s.kernels_launched, 1u);
  EXPECT_GT(s.busy_lane_ns, 0.0);
  // Busy lane-time can never exceed lanes × active time.
  EXPECT_LE(s.busy_lane_ns,
            s.active_ns * dev.props().total_lanes() + 1e-6);
  EXPECT_LE(s.mean_utilization(dev.props().total_lanes()), 1.0 + 1e-9);
}

TEST(Engine, ResetStatsClears) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.launch_kernel(kDefaultStream, "k", cfg(4, 128), flops(1e6), {});
  dev.synchronize();
  dev.reset_stats();
  EXPECT_EQ(dev.stats().kernels_launched, 0u);
  EXPECT_EQ(dev.stats().busy_lane_ns, 0.0);
}

// --- callbacks / timeline -------------------------------------------------------------

TEST(Engine, KernelCallbackSeesRecordFields) {
  SimDevice dev(gpusim::DeviceTable::p100());
  gpusim::KernelRecord seen;
  dev.set_kernel_callback([&](const gpusim::KernelRecord& r) { seen = r; });
  const auto s = dev.create_stream();
  const auto corr = dev.launch_kernel(s, "my_kernel", cfg(7, 192, 1024), flops(1e6), {});
  dev.synchronize();
  EXPECT_EQ(seen.correlation_id, corr);
  EXPECT_EQ(seen.name, "my_kernel");
  EXPECT_EQ(seen.stream, s);
  EXPECT_EQ(seen.config.grid.x, 7u);
  EXPECT_EQ(seen.config.block.x, 192u);
  EXPECT_EQ(seen.config.smem_static_bytes, 1024u);
  EXPECT_GT(seen.end_ns, seen.start_ns);
}

TEST(Engine, TimelineDisabledByDefault) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.launch_kernel(kDefaultStream, "k", cfg(1, 32), flops(1e3), {});
  dev.synchronize();
  EXPECT_TRUE(dev.timeline().kernels().empty());
}

TEST(Engine, RegisterPenaltySlowsSpillingKernels) {
  auto run = [](bool penalty) {
    SimDevice dev(gpusim::DeviceTable::p100());
    dev.set_register_penalty_enabled(penalty);
    LaunchConfig c = cfg(200, 1024);
    c.regs_per_thread = 200;  // 2 blocks/SM x 1024 x 200 >> 64K regs
    dev.launch_kernel(kDefaultStream, "fat", c, flops(1e9), {});
    dev.synchronize();
    return dev.device_now();
  };
  EXPECT_GT(run(true), run(false) * 1.2);
}

TEST(Engine, HighPriorityStreamsAdmitFirstUnderSaturation) {
  // C = 1: kernels execute strictly one at a time, so the admission order
  // under saturation is observable through the functor order.
  auto props = gpusim::DeviceTable::p100();
  props.max_concurrent_kernels = 1;
  SimDevice dev(props);
  const auto low = dev.create_stream(/*priority=*/0);
  const auto high = dev.create_stream(/*priority=*/5);
  EXPECT_EQ(dev.stream_priority(high), 5);
  EXPECT_EQ(dev.stream_priority(kDefaultStream), 0);

  std::vector<char> order;
  // Low-priority work submitted first; both become ready while the device
  // is saturated by the first kernel.
  dev.launch_kernel(low, "l0", cfg(4, 128), flops(1e8), [&] { order.push_back('l'); });
  dev.launch_kernel(low, "l1", cfg(4, 128), flops(1e6), [&] { order.push_back('l'); });
  dev.launch_kernel(high, "h0", cfg(4, 128), flops(1e6), [&] { order.push_back('h'); });
  dev.synchronize();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 'l');  // was already running
  EXPECT_EQ(order[1], 'h');  // jumped the queue at the free slot
  EXPECT_EQ(order[2], 'l');
}

TEST(Engine, HeavyOversubscriptionCompletes) {
  // Regression: packed-out kernels (rate 0) whose start-latency residue
  // shrank below one ulp of the clock used to spin the event loop forever.
  SimDevice dev(gpusim::DeviceTable::titan_xp());
  std::vector<gpusim::StreamId> streams;
  for (int i = 0; i < 32; ++i) streams.push_back(dev.create_stream());
  for (int i = 0; i < 320; ++i) {
    dev.launch_kernel(streams[static_cast<std::size_t>(i % 32)], "big",
                      cfg(96, 256, 16 * 1024), flops(3e8), {});
  }
  dev.synchronize();
  EXPECT_GT(dev.device_now(), 0.0);
}

TEST(Engine, HostCallbackRunsInStreamOrder) {
  SimDevice dev(gpusim::DeviceTable::p100());
  const auto s = dev.create_stream();
  std::vector<int> order;
  dev.launch_kernel(s, "k", cfg(8, 256), flops(1e7), [&] { order.push_back(0); });
  dev.host_callback(s, [&] { order.push_back(1); });
  dev.launch_kernel(s, "k2", cfg(8, 256), flops(1e5), [&] { order.push_back(2); });
  dev.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, DeterministicReplay) {
  auto run = [] {
    SimDevice dev(gpusim::DeviceTable::titan_xp());
    std::vector<gpusim::StreamId> streams;
    for (int i = 0; i < 3; ++i) streams.push_back(dev.create_stream());
    for (int i = 0; i < 30; ++i) {
      dev.launch_kernel(streams[static_cast<std::size_t>(i % 3)], "k",
                        cfg(5 + (i % 7), 128), flops(1e6 * (1 + i % 5)), {});
    }
    dev.synchronize();
    return dev.device_now();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
