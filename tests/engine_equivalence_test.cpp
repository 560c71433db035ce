// Golden event-for-event equivalence suite for the engine hot-path
// overhaul: the optimized SimDevice must be indistinguishable from the
// ReferenceEngine seam — identical kernel/copy records (every timestamp
// bit-for-bit), identical training results, identical serving replays —
// on fuzzed programs, fault-injected programs, and targeted regressions
// for the incremental structures (runnable-stream index, lazily
// refreshed rates, release horizon).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpusim/engine.hpp"
#include "gpusim/timeline.hpp"
#include "testing/differential.hpp"
#include "testing/net_generator.hpp"

namespace {

using gpusim::EngineKind;

glpfuzz::DiffOptions engine_contract() {
  glpfuzz::DiffOptions opts;
  opts.contract = glpfuzz::Contract::kEngine;
  return opts;
}

// --- full-stack differentials -----------------------------------------------

TEST(EngineEquivalence, FuzzCorpusSubsetBitExact) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const glpfuzz::FuzzCase c = glpfuzz::make_case(seed, {});
    const glpfuzz::DiffResult r =
        glpfuzz::run_differential(c, engine_contract());
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_GT(r.kernels_compared, 0u) << "seed " << seed;
  }
}

TEST(EngineEquivalence, FaultedCasesBitExact) {
  glpfuzz::DiffOptions opts = engine_contract();
  opts.faults.launch_failure_rate = 0.05;
  opts.faults.stream_create_failure_rate = 0.02;
  for (std::uint64_t seed = 40; seed <= 45; ++seed) {
    const glpfuzz::FuzzCase c = glpfuzz::make_case(seed, {});
    const glpfuzz::DiffResult r = glpfuzz::run_differential(c, opts);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
}

// The serving corpus's seeds (serving_fuzz_test runs the same 1-15).
constexpr std::uint64_t kServingSeeds = 15;

TEST(EngineEquivalence, ServingReplaysBitExact) {
  for (std::uint64_t seed = 1; seed <= kServingSeeds; ++seed) {
    const glpfuzz::ServeCase c = glpfuzz::make_serving_case(seed);
    const glpfuzz::DiffResult r =
        glpfuzz::run_differential(c, engine_contract());
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_GT(r.kernels_compared, 0u) << "seed " << seed;
  }
}

TEST(EngineEquivalence, FaultedServingReplaysBitExact) {
  // Both engines draw the same faults: refused stream creations leave
  // slots on the default stream and refused launches re-issue there, so
  // the tenant-sliced server runs a different stream layout per seed.
  glpfuzz::DiffOptions opts = engine_contract();
  opts.faults.launch_failure_rate = 0.05;
  opts.faults.stream_create_failure_rate = 0.05;
  opts.faults.capture_loss_rate = 0.05;
  std::size_t faults = 0;
  for (std::uint64_t seed = 1; seed <= kServingSeeds; ++seed) {
    const glpfuzz::ServeCase c = glpfuzz::make_serving_case(seed);
    const glpfuzz::DiffResult r = glpfuzz::run_differential(c, opts);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_GT(r.kernels_compared, 0u) << "seed " << seed;
    faults += r.launch_faults + r.stream_faults + r.capture_drops;
  }
  EXPECT_GT(faults, 0u) << "no fault fired across the corpus";
}

TEST(EngineEquivalence, TimelinesDifferingOnlyInCopyPeerCompareUnequal) {
  // A peer copy delivered to the wrong device must not pass as identical.
  gpusim::Timeline a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  gpusim::CopyRecord copy;
  copy.correlation_id = 7;
  copy.bytes = 4096;
  copy.start_ns = 100.0;
  copy.end_ns = 200.0;
  copy.peer = 1;
  a.add_copy(copy);
  copy.peer = 2;
  b.add_copy(copy);
  EXPECT_NE(glpfuzz::compare_timelines(a, b), "");
  EXPECT_EQ(glpfuzz::compare_timelines(a, a), "");
}

// --- direct-API programs -----------------------------------------------------

gpusim::LaunchConfig cfg(unsigned grid, unsigned block, int regs = 32,
                         std::size_t smem = 0) {
  gpusim::LaunchConfig c;
  c.grid = {grid, 1, 1};
  c.block = {block, 1, 1};
  c.regs_per_thread = regs;
  c.smem_static_bytes = smem;
  return c;
}

gpusim::KernelCost cost(double flops) {
  gpusim::KernelCost c;
  c.flops = flops;
  c.bytes = flops / 16.0;
  return c;
}

/// Drive both engines with the same deterministic pseudo-random program
/// and require bit-identical timelines.
void expect_program_equivalent(
    const std::function<void(gpusim::DeviceEngine&)>& program) {
  gpusim::Timeline timelines[2];
  const EngineKind kinds[2] = {EngineKind::kOptimized, EngineKind::kReference};
  for (int i = 0; i < 2; ++i) {
    auto dev = gpusim::make_device_engine(gpusim::DeviceTable::k40c(), kinds[i]);
    dev->timeline().set_enabled(true);
    program(*dev);
    dev->synchronize();
    timelines[i] = dev->timeline();
  }
  EXPECT_EQ(glpfuzz::compare_timelines(timelines[0], timelines[1]), "");
  EXPECT_GT(timelines[0].kernels().size(), 0u);
}

TEST(EngineEquivalence, RandomDirectApiProgram) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    // xorshift so the op mix is machine-independent.
    std::uint64_t state = 0x243f6a8885a308d3ull;
    const auto rnd = [&state](std::uint64_t bound) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state % bound;
    };
    std::vector<gpusim::StreamId> streams{gpusim::kDefaultStream};
    for (int s = 0; s < 5; ++s) {
      streams.push_back(dev.create_stream(static_cast<int>(rnd(3))));
    }
    std::vector<gpusim::EventId> events;
    for (int op = 0; op < 400; ++op) {
      const gpusim::StreamId s = streams[rnd(streams.size())];
      switch (rnd(6)) {
        case 0:
        case 1:
        case 2:
          dev.launch_kernel(s, "k", cfg(8 + rnd(64), 64u << rnd(3)),
                            cost(1e5 + 1e4 * rnd(50)), {});
          break;
        case 3:
          dev.memcpy_async(s, 1024 + rnd(1 << 16), rnd(2) == 0, {});
          break;
        case 4:
          events.push_back(dev.record_event(s));
          break;
        default:
          if (!events.empty()) {
            dev.wait_event(s, events[rnd(events.size())]);
          }
          break;
      }
      if (rnd(50) == 0) dev.synchronize();
      if (rnd(40) == 0 && !events.empty()) {
        dev.synchronize_event(events[rnd(events.size())]);
      }
    }
  });
}

// Regression: several streams sharing one priority level. The reference
// drains by std::map order refined by a stable_sort on priority; the
// optimized engine must reproduce that (priority desc, id asc) order from
// its runnable-stream index, including the equal-priority ties.
TEST(EngineEquivalence, AdmissionOrderTiesUnderEqualPriorities) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    std::vector<gpusim::StreamId> low, high;
    for (int s = 0; s < 4; ++s) low.push_back(dev.create_stream(0));
    for (int s = 0; s < 4; ++s) high.push_back(dev.create_stream(1));
    // More kernels than the device can hold resident: admission order
    // decides which queue wins each freed slot, so any order divergence
    // changes the timeline.
    for (int round = 0; round < 30; ++round) {
      for (const gpusim::StreamId s : low) {
        dev.launch_kernel(s, "low", cfg(32, 128), cost(5e5), {});
      }
      for (const gpusim::StreamId s : high) {
        dev.launch_kernel(s, "high", cfg(32, 128), cost(5e5), {});
      }
    }
    dev.synchronize();
    // Interleave creation so the index must insert between existing
    // priority groups, not just append.
    const gpusim::StreamId mid = dev.create_stream(1);
    const gpusim::StreamId late_low = dev.create_stream(0);
    for (int round = 0; round < 10; ++round) {
      dev.launch_kernel(mid, "mid", cfg(16, 128), cost(3e5), {});
      dev.launch_kernel(late_low, "late", cfg(16, 128), cost(3e5), {});
      dev.launch_kernel(low[0], "low0", cfg(16, 128), cost(3e5), {});
    }
  });
}

// Regression: stream destruction mid-program. The optimized engine's
// runnable-stream index and release horizon must drop the stream, and
// rates must stay right for resident sets formed before and after the
// destroy.
TEST(EngineEquivalence, StreamDestroyInvalidation) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    for (int wave = 0; wave < 4; ++wave) {
      std::vector<gpusim::StreamId> pool;
      for (int s = 0; s < 3; ++s) pool.push_back(dev.create_stream(s));
      for (int round = 0; round < 8; ++round) {
        for (const gpusim::StreamId s : pool) {
          // Same configs each wave: repeat resident sets across destroys.
          dev.launch_kernel(s, "wave", cfg(24, 256, 40, 4096), cost(4e5), {});
        }
      }
      // Destroy one stream while its siblings still hold queued work.
      dev.destroy_stream(pool[1]);
      for (int round = 0; round < 4; ++round) {
        dev.launch_kernel(pool[0], "tail", cfg(24, 256, 40, 4096), cost(4e5), {});
      }
      dev.synchronize();
      dev.destroy_stream(pool[0]);
      dev.destroy_stream(pool[2]);
    }
  });
}

// Regression: host callbacks that create streams and submit work while
// the engine is mid-drain (streams created during a pass must not join it).
TEST(EngineEquivalence, HostCallbackReentrancy) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    const gpusim::StreamId s1 = dev.create_stream(1);
    for (int i = 0; i < 6; ++i) {
      dev.launch_kernel(s1, "pre", cfg(16, 128), cost(2e5), {});
      gpusim::DeviceEngine* d = &dev;
      dev.host_callback(s1, [d] {
        const gpusim::StreamId fresh = d->create_stream(2);
        d->launch_kernel(fresh, "from_cb", cfg(8, 64), cost(1e5), {});
        d->launch_kernel(gpusim::kDefaultStream, "cb_default", cfg(8, 64),
                         cost(1e5), {});
      });
    }
  });
}

// Events recorded and waited across streams, with wait ops queued before
// the record drains (release horizon + event table interplay).
TEST(EngineEquivalence, CrossStreamEventChains) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    const gpusim::StreamId a = dev.create_stream(0);
    const gpusim::StreamId b = dev.create_stream(0);
    for (int i = 0; i < 20; ++i) {
      dev.launch_kernel(a, "producer", cfg(32, 256), cost(8e5), {});
      const gpusim::EventId ev = dev.record_event(a);
      dev.wait_event(b, ev);
      dev.launch_kernel(b, "consumer", cfg(32, 256), cost(8e5), {});
      const gpusim::EventId back = dev.record_event(b);
      dev.wait_event(a, back);
      if (i % 5 == 0) {
        EXPECT_EQ(dev.event_complete(ev), dev.event_complete(ev));
        dev.synchronize_event(ev);
      }
    }
  });
}

// --- lazily refreshed rates -------------------------------------------------
//
// A completion leaves the optimized engine's rates stale until the next
// read repacks. Past 2^33 ns the completion test's ε, which scales with
// the clock, covers ~8.6 ns of each kernel's progress (thousands of
// thread-cycles), so kernels finishing within nanoseconds of each other
// complete at one instant, and whether each does depends on its rate
// *after* the others left. Waves of identical kernels on 8 streams gate
// together behind a default-stream kernel; each completion frees a slot
// its stream refills at the same instant, and the ragged ends of a wave
// leave completions no admission follows. Wave shapes and slightly
// jittered costs vary the resident sets past 4096 distinct signatures.
TEST(EngineEquivalence, LazyRatesAtCoincidentCompletions) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    std::uint64_t state = 0x6a09e667f3bcc909ull;
    const auto rnd = [&state](std::uint64_t bound) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state % bound;
    };
    dev.host_advance(std::ldexp(1.0, 33));
    std::vector<gpusim::StreamId> streams;
    for (int s = 0; s < 8; ++s) streams.push_back(dev.create_stream(0));
    for (int wave = 0; wave < 450; ++wave) {
      dev.launch_kernel(gpusim::kDefaultStream, "gate", cfg(15, 128), cost(1e6), {});
      const gpusim::LaunchConfig shape =
          cfg(4 + rnd(60), 32u * (1 + rnd(16)), 16 + 8 * rnd(20), 1024 * rnd(5));
      const double flops = 2e6 + 2e5 * rnd(40);
      for (int depth = 0; depth < 6; ++depth) {
        for (const gpusim::StreamId s : streams) {
          dev.launch_kernel(s, "wave", shape,
                            cost(flops * (1.0 + 1e-5 * rnd(8))), {});
        }
      }
    }
  });
}

// --- parked heads --------------------------------------------------------------
//
// A lane-stream head whose default_dep is incomplete, and the default
// stream's own head while older blocking work runs (the barrier), leave
// the optimized engine's runnable index until that op completes, and the
// completion puts them back. Each scope forks lanes off a default-stream
// gate through an event, as a steady GLP4NN scope does, queues a
// default-stream join behind the lanes' work (it parks on the barrier),
// and queues more lane work behind the join (it parks on its
// default_dep). Host functors create streams and queue work on them
// while heads are parked, and those streams are destroyed while the next
// scope's heads wait. A wake-up that came late or never would move a
// start time or stall the program.
TEST(EngineEquivalence, ParkedHeadsWakeOnDefaultStreamOps) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    std::uint64_t state = 0xbb67ae8584caa73bull;
    const auto rnd = [&state](std::uint64_t bound) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state % bound;
    };
    gpusim::DeviceEngine* d = &dev;
    std::vector<gpusim::StreamId> made;  // created by functors
    const auto make_stream = [d, &made] {
      const gpusim::StreamId fresh =
          d->create_stream(static_cast<int>(made.size() % 3) - 1);
      made.push_back(fresh);
      d->launch_kernel(fresh, "made", cfg(12, 128), cost(4e5), {});
      d->memcpy_async(fresh, 1 << 13, false, {});
    };
    std::vector<gpusim::StreamId> lanes;
    for (int s = 0; s < 6; ++s) {
      lanes.push_back(dev.create_stream(static_cast<int>(rnd(2))));
    }
    for (int scope = 0; scope < 120; ++scope) {
      dev.launch_kernel(gpusim::kDefaultStream, "gate", cfg(8 + rnd(56), 128),
                        cost(1e6 + 1e5 * rnd(20)), {});
      const gpusim::EventId fork = dev.record_event(gpusim::kDefaultStream);
      const std::uint64_t width = 1 + rnd(lanes.size());
      for (std::uint64_t i = 0; i < width; ++i) {
        if (rnd(2) == 0) dev.wait_event(lanes[i], fork);
        gpusim::InlineFn work;
        if (rnd(4) == 0) work = make_stream;
        dev.launch_kernel(lanes[i], "lane", cfg(4 + rnd(60), 32u * (1 + rnd(8))),
                          cost(5e5 + 1e5 * rnd(30)), std::move(work));
      }
      switch (rnd(3)) {
        case 0:
          dev.memcpy_async(gpusim::kDefaultStream, 4096 + rnd(1 << 14), false, {});
          break;
        case 1:
          dev.host_callback(gpusim::kDefaultStream, make_stream);
          break;
        default:
          dev.launch_kernel(gpusim::kDefaultStream, "join", cfg(16, 256),
                            cost(3e5), {});
          break;
      }
      for (std::uint64_t i = 0; i < width; ++i) {
        if (rnd(2) == 0) {
          dev.launch_kernel(lanes[i], "tail", cfg(8 + rnd(24), 128),
                            cost(2e5 + 1e5 * rnd(10)), {});
        }
      }
      if (scope % 10 == 9) {
        for (const gpusim::StreamId s : made) dev.destroy_stream(s);
        made.clear();
      }
    }
    // The functors capture `made`: run them all before it goes away.
    dev.synchronize();
    for (const gpusim::StreamId s : made) dev.destroy_stream(s);
  });
}

// --- runnable-stream index ---------------------------------------------------
//
// Same-direction copies share one copy engine, which serves them in the
// order a pass visits their streams; every copy record's start time
// therefore pins the walk order, and a divergence fails the comparison.

// Many live streams, few busy: 150 pool streams span three words of the
// index, and each scope forks one to four of them off a home stream and
// joins them back, as the tenant-sliced server does.
TEST(EngineEquivalence, RunnableIndexWalksManyIdleStreams) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto rnd = [&state](std::uint64_t bound) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state % bound;
    };
    const gpusim::StreamId home = dev.create_stream(1);
    std::vector<gpusim::StreamId> pool;
    for (int s = 0; s < 150; ++s) pool.push_back(dev.create_stream(0));
    for (int scope = 0; scope < 60; ++scope) {
      dev.launch_kernel(home, "gate", cfg(64, 256), cost(2e8), {});
      const gpusim::EventId fork = dev.record_event(home);
      std::vector<gpusim::EventId> joins;
      const std::uint64_t width = 1 + rnd(4);
      for (std::uint64_t i = 0; i < width; ++i) {
        const gpusim::StreamId s = pool[rnd(pool.size())];
        dev.wait_event(s, fork);
        dev.memcpy_async(s, 4096 + rnd(1 << 14), true, {});
        dev.launch_kernel(s, "slice", cfg(8 + rnd(32), 128),
                          cost(2e5 + 1e4 * rnd(20)), {});
        joins.push_back(dev.record_event(s));
      }
      for (const gpusim::EventId ev : joins) dev.wait_event(home, ev);
      if (rnd(8) == 0) dev.synchronize();
    }
  });
}

// A host callback creates streams mid-pass: one at its own priority (ids
// past the cursor in the same word), one below it, and one at a brand-new
// higher level. None may join the pass that ran the callback, so the new
// level's copy goes first on the next pass.
TEST(EngineEquivalence, HostCallbackCreatesStreamMidPass) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    const gpusim::StreamId a = dev.create_stream(0);
    gpusim::DeviceEngine* d = &dev;
    for (int i = 0; i < 4; ++i) {
      dev.launch_kernel(a, "long", cfg(64, 256), cost(5e8), {});
      dev.host_callback(a, [d, i] {
        for (const int priority : {0, -1, 3 + i}) {
          const gpusim::StreamId fresh = d->create_stream(priority);
          d->memcpy_async(fresh, 1 << 14, true, {});
          d->launch_kernel(fresh, "fresh", cfg(8, 64), cost(1e5), {});
        }
      });
    }
  });
}

// A host callback queues copies on idle streams before and after the
// cursor: past it in the same word, in a later word and at a lower level
// (all visited in this pass), and before it and at a higher level (left
// for the next pass).
TEST(EngineEquivalence, HostCallbackQueuesWorkAroundCursor) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    const gpusim::StreamId before = dev.create_stream(0);
    const gpusim::StreamId cb = dev.create_stream(0);
    const gpusim::StreamId after = dev.create_stream(0);
    for (int s = 0; s < 70; ++s) dev.create_stream(0);
    const gpusim::StreamId far = dev.create_stream(0);
    const gpusim::StreamId higher = dev.create_stream(1);
    const gpusim::StreamId lower = dev.create_stream(-1);
    ASSERT_GE(far, 64);  // the walk must cross a word boundary
    gpusim::DeviceEngine* d = &dev;
    for (int i = 0; i < 3; ++i) {
      dev.launch_kernel(cb, "long", cfg(64, 256), cost(5e8), {});
      dev.host_callback(cb, [d, before, after, far, higher, lower] {
        for (const gpusim::StreamId s : {before, after, far, higher, lower}) {
          d->memcpy_async(s, 1 << 14, true, {});
        }
      });
    }
  });
}

// Two priority levels, the higher one first created while the lower
// level's work is still queued. More kernels are ready than the K40C's
// concurrency degree (32), so each freed slot goes to the first stream
// the walk visits.
TEST(EngineEquivalence, PriorityLevelCreatedAfterWorkQueued) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    std::vector<gpusim::StreamId> low;
    for (int s = 0; s < 40; ++s) low.push_back(dev.create_stream(0));
    for (int round = 0; round < 4; ++round) {
      for (const gpusim::StreamId s : low) {
        dev.launch_kernel(s, "low", cfg(16, 128), cost(3e8), {});
        dev.memcpy_async(s, 1 << 12, false, {});
      }
    }
    const gpusim::StreamId high = dev.create_stream(2);
    const gpusim::StreamId late_low = dev.create_stream(0);
    for (int round = 0; round < 6; ++round) {
      dev.launch_kernel(high, "high", cfg(16, 128), cost(3e8), {});
      dev.memcpy_async(high, 1 << 12, false, {});
      dev.launch_kernel(late_low, "late", cfg(16, 128), cost(3e8), {});
    }
  });
}

// Destroying a drained stream clears its place in the index; later work
// on its word-neighbours and on streams created afterwards runs as in
// the reference.
TEST(EngineEquivalence, DestroyDrainedStreamThenMoreWork) {
  expect_program_equivalent([](gpusim::DeviceEngine& dev) {
    std::vector<gpusim::StreamId> pool;
    for (int s = 0; s < 70; ++s) pool.push_back(dev.create_stream(0));
    for (int wave = 0; wave < 3; ++wave) {
      const gpusim::StreamId victim = pool[static_cast<std::size_t>(3 + wave)];
      for (const gpusim::StreamId s : {victim, pool[66]}) {
        dev.launch_kernel(s, "pre", cfg(16, 128), cost(3e7), {});
        dev.memcpy_async(s, 1 << 12, true, {});
      }
      dev.synchronize_stream(victim);
      dev.destroy_stream(victim);
      const gpusim::StreamId fresh = dev.create_stream(0);
      for (const gpusim::StreamId s : {pool[2], pool[7], pool[66], fresh}) {
        dev.launch_kernel(s, "post", cfg(16, 128), cost(3e7), {});
        dev.memcpy_async(s, 1 << 12, true, {});
      }
    }
  });
}

}  // namespace
