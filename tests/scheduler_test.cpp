#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "core/glp4nn.hpp"
#include "kernels/launcher.hpp"

namespace {

using glp4nn::DispatchPolicy;
using glp4nn::Glp4nnEngine;
using glp4nn::RuntimeScheduler;
using glp4nn::SchedulerOptions;

gpusim::LaunchConfig cfg(unsigned blocks, unsigned threads) {
  gpusim::LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  return c;
}

struct SchedulerTest : ::testing::Test {
  SchedulerTest() : ctx(gpusim::DeviceTable::p100()) {}

  RuntimeScheduler& scheduler(SchedulerOptions options = {}) {
    engine = std::make_unique<Glp4nnEngine>(options);
    return engine->scheduler_for(ctx);
  }

  // Run one scope of `tasks` tasks, each launching one kernel.
  void run_scope(RuntimeScheduler& s, const std::string& scope, int tasks,
                 double flops = 5e7) {
    s.begin_scope(scope, static_cast<std::size_t>(tasks));
    for (int i = 0; i < tasks; ++i) {
      const kern::Lane lane = s.task_lane(static_cast<std::size_t>(i));
      ctx.device().launch_kernel(lane.stream, scope + "/work", cfg(8, 256),
                                 {flops, flops / 4}, {});
    }
    s.end_scope();
    ctx.device().synchronize();
  }

  scuda::Context ctx;
  std::unique_ptr<Glp4nnEngine> engine;
};

TEST_F(SchedulerTest, FirstEncounterProfilesOnDefaultStream) {
  RuntimeScheduler& s = scheduler();
  s.begin_scope("conv/fwd", 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s.task_lane(static_cast<std::size_t>(i)).stream,
              gpusim::kDefaultStream);
  }
  // Still undecided mid-profiling.
  EXPECT_EQ(s.stream_count("conv/fwd"), 0);
  for (int i = 0; i < 4; ++i) {
    ctx.device().launch_kernel(gpusim::kDefaultStream, "conv/fwd/k",
                               cfg(8, 256), {5e7, 1e7}, {});
  }
  s.end_scope();
  EXPECT_GT(s.stream_count("conv/fwd"), 0);
}

TEST_F(SchedulerTest, SteadyStateUsesPoolStreams) {
  RuntimeScheduler& s = scheduler();
  run_scope(s, "conv/fwd", 8);  // profile
  const int streams = s.stream_count("conv/fwd");
  ASSERT_GT(streams, 1);

  s.begin_scope("conv/fwd", 8);
  std::set<gpusim::StreamId> used;
  for (int i = 0; i < 8; ++i) {
    const kern::Lane lane = s.task_lane(static_cast<std::size_t>(i));
    EXPECT_NE(lane.stream, gpusim::kDefaultStream);
    used.insert(lane.stream);
    EXPECT_EQ(lane.lane, i % streams);
  }
  s.end_scope();
  EXPECT_EQ(static_cast<int>(used.size()), std::min(streams, 8));
}

TEST_F(SchedulerTest, RoundRobinMapsModulo) {
  SchedulerOptions opt;
  opt.fixed_streams = 3;
  RuntimeScheduler& s = scheduler(opt);
  s.begin_scope("x", 9);
  const auto l0 = s.task_lane(0);
  const auto l3 = s.task_lane(3);
  const auto l7 = s.task_lane(7);
  EXPECT_EQ(l0.stream, l3.stream);
  EXPECT_EQ(l7.lane, 1);
  s.end_scope();
}

TEST_F(SchedulerTest, BlockCyclicPolicyGroupsContiguously) {
  SchedulerOptions opt;
  opt.fixed_streams = 2;
  opt.policy = DispatchPolicy::kBlockCyclic;
  RuntimeScheduler& s = scheduler(opt);
  s.begin_scope("x", 8);
  EXPECT_EQ(s.task_lane(0).lane, 0);
  EXPECT_EQ(s.task_lane(3).lane, 0);
  EXPECT_EQ(s.task_lane(4).lane, 1);
  EXPECT_EQ(s.task_lane(7).lane, 1);
  s.end_scope();
}

TEST_F(SchedulerTest, FixedStreamsBypassesProfiling) {
  SchedulerOptions opt;
  opt.fixed_streams = 4;
  RuntimeScheduler& s = scheduler(opt);
  s.begin_scope("never/profiled", 4);
  EXPECT_NE(s.task_lane(0).stream, gpusim::kDefaultStream);
  s.end_scope();
  EXPECT_EQ(s.stream_count("never/profiled"), 4);
  // No analyzer decision was created.
  EXPECT_EQ(engine->analyzer_for(ctx)->decision("never/profiled"), nullptr);
}

TEST_F(SchedulerTest, RejectsNegativeFixedPool) {
  // fixed_streams = 0 means "ask the analyzer"; a negative pool is an error.
  SchedulerOptions opt;
  opt.fixed_streams = -1;
  EXPECT_THROW(scheduler(opt), glp::InvalidArgument);
}

TEST_F(SchedulerTest, EndScopeOrdersLaterDefaultWork) {
  // An unbound steady scope's end_scope posts an asynchronous barrier on
  // the default stream: later work, on the default stream or on another
  // stream, observes every kernel of the scope.
  SchedulerOptions opt;
  opt.fixed_streams = 2;
  RuntimeScheduler& s = scheduler(opt);
  const gpusim::StreamId other = ctx.device().create_stream();
  for (gpusim::StreamId later : {gpusim::kDefaultStream, other}) {
    std::vector<int> order;
    s.begin_scope("s", 2);
    for (std::size_t i = 0; i < 2; ++i) {
      const kern::Lane lane = s.task_lane(i);
      EXPECT_NE(lane.stream, later);
      ctx.device().launch_kernel(lane.stream, "w", cfg(8, 256), {1e8, 1e7},
                                 [&order] { order.push_back(0); });
    }
    s.end_scope();
    ctx.device().launch_kernel(later, "after", cfg(8, 256), {1e3, 1e3},
                               [&order] { order.push_back(1); });
    ctx.device().synchronize();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[2], 1) << "work on stream " << later
                           << " overtook the scope";
  }
}

TEST_F(SchedulerTest, StreamCountReportsTheBoundSlice) {
  // A bound scope's pool is cut to its slot slice (P100: 128 streams over
  // 16 slots gives 8 per slot), and stream_count reports that cut pool,
  // under the binding the scope last ran under.
  SchedulerOptions opt;
  opt.fixed_streams = 16;
  RuntimeScheduler& s = scheduler(opt);
  ASSERT_EQ(s.max_lanes(), 128);
  const auto pool_of = [&] {
    s.begin_scope("conv/fwd", 16);
    std::set<gpusim::StreamId> pool;
    for (std::size_t i = 0; i < 16; ++i) pool.insert(s.task_lane(i).stream);
    s.end_scope();
    return pool.size();
  };
  kern::DagOpBinding op;
  op.num_slots = 16;
  s.bind_dag_op(op);
  EXPECT_EQ(pool_of(), 8u);
  s.clear_dag_op();
  EXPECT_EQ(s.stream_count("conv/fwd"), 8);

  EXPECT_EQ(pool_of(), 16u);
  EXPECT_EQ(s.stream_count("conv/fwd"), 16);
  // A scope that has not run yet counts as unbound.
  EXPECT_EQ(s.stream_count("never/run"), 16);
}

TEST_F(SchedulerTest, MaxStreamsCapsDecision) {
  SchedulerOptions opt;
  opt.max_streams = 2;
  RuntimeScheduler& s = scheduler(opt);
  run_scope(s, "big", 16, 5e8);
  EXPECT_LE(s.stream_count("big"), 2);
}

TEST_F(SchedulerTest, StrictReproRoundsToDivisorOf32) {
  SchedulerOptions opt;
  opt.strict_repro = true;
  RuntimeScheduler& s = scheduler(opt);
  for (int requested : {1, 2, 3, 5, 7, 8, 12, 31, 32, 100}) {
    const int clamped = s.clamp_streams(requested);
    EXPECT_EQ(32 % clamped, 0) << requested;
    EXPECT_LE(clamped, std::max(requested, 1));
  }
  EXPECT_EQ(s.clamp_streams(7), 4);
  EXPECT_EQ(s.clamp_streams(100), 32);
}

TEST_F(SchedulerTest, ScopesMustNotNest) {
  RuntimeScheduler& s = scheduler();
  s.begin_scope("a", 1);
  EXPECT_THROW(s.begin_scope("b", 1), glp::InvalidArgument);
  s.task_lane(0);
  ctx.device().launch_kernel(gpusim::kDefaultStream, "a/k", cfg(2, 64),
                             {1e5, 1e5}, {});
  s.end_scope();
  EXPECT_THROW(s.end_scope(), glp::InvalidArgument);
  EXPECT_THROW(s.task_lane(0), glp::InvalidArgument);
}

TEST_F(SchedulerTest, EachScopeProfiledExactlyOnce) {
  RuntimeScheduler& s = scheduler();
  run_scope(s, "conv1/fwd", 4);
  run_scope(s, "conv1/fwd", 4);
  run_scope(s, "conv1/fwd", 4);
  run_scope(s, "conv2/fwd", 4);
  const auto& decisions = engine->analyzer_for(ctx)->decisions();
  EXPECT_EQ(decisions.size(), 2u);
}

TEST_F(SchedulerTest, EmptyProfiledScopeRetriesNextTime) {
  RuntimeScheduler& s = scheduler();
  s.begin_scope("empty", 0);
  s.end_scope();  // nothing launched → no decision
  EXPECT_EQ(s.stream_count("empty"), 0);
  run_scope(s, "empty", 4);  // profiles for real now
  EXPECT_GT(s.stream_count("empty"), 0);
}

TEST_F(SchedulerTest, OverheadChargedToHostClock) {
  RuntimeScheduler& s = scheduler();
  const double host_before = ctx.device().host_now();
  run_scope(s, "scope", 8);
  const glp4nn::FrameworkCosts costs = engine->costs();
  EXPECT_GT(costs.profiling_ms + costs.analysis_ms, 0.0);
  // Host clock advanced by at least the charged overhead.
  EXPECT_GT(ctx.device().host_now() - host_before,
            (costs.profiling_ms + costs.analysis_ms) * 1e6);
}

TEST_F(SchedulerTest, SteadyStateIsFasterThanSerialForOverlappableWork) {
  // Measure one steady-state scope vs the same work on the default stream.
  RuntimeScheduler& s = scheduler();
  run_scope(s, "w", 16);  // profiling pass
  const double t0 = ctx.device().host_now();
  run_scope(s, "w", 16);  // steady
  const double glp_time = ctx.device().host_now() - t0;

  scuda::Context serial_ctx(gpusim::DeviceTable::p100());
  const double s0 = serial_ctx.device().host_now();
  for (int i = 0; i < 16; ++i) {
    serial_ctx.device().launch_kernel(gpusim::kDefaultStream, "w/work",
                                      cfg(8, 256), {5e7, 5e7 / 4}, {});
  }
  serial_ctx.device().synchronize();
  const double serial_time = serial_ctx.device().host_now() - s0;
  EXPECT_LT(glp_time, serial_time);
}

TEST_F(SchedulerTest, TenantSlicesDisjointAcrossDifferingDecisions) {
  // Regression: slice geometry must be uniform per device, not derived
  // from the scope's analyzer decision. Scopes are tenant/batch-size
  // keyed, so two concurrent slots can be running scopes whose decided
  // stream counts differ — if each slot computed its slice from its own
  // decision, the ranges could overlap and in-flight batches would share
  // streams (serialising supposedly isolated tenants).
  RuntimeScheduler& s = scheduler();
  // Profile two scopes with very different concurrency appetites.
  run_scope(s, "heavy", 16, 5e8);
  run_scope(s, "light", 2, 1e5);
  const int heavy_streams = s.stream_count("heavy");
  const int light_streams = s.stream_count("light");
  ASSERT_GT(heavy_streams, 0);
  ASSERT_GT(light_streams, 0);
  ASSERT_NE(heavy_streams, light_streams)
      << "test needs scopes with differing decisions to exercise the bug";

  const auto steady_pool = [&](const std::string& scope, int tasks,
                               int slot) {
    s.bind_dag_op({gpusim::kDefaultStream, slot, /*num_slots=*/2, {}});
    s.begin_scope(scope, static_cast<std::size_t>(tasks));
    std::set<gpusim::StreamId> used;
    for (int i = 0; i < tasks; ++i) {
      used.insert(s.task_lane(static_cast<std::size_t>(i)).stream);
    }
    s.end_scope();
    s.clear_dag_op();
    return used;
  };

  const auto slot0 = steady_pool("heavy", 16, 0);
  const auto slot1 = steady_pool("light", 2, 1);
  for (gpusim::StreamId a : slot0) {
    EXPECT_EQ(slot1.count(a), 0u)
        << "stream " << a << " shared between concurrent batch slots";
  }
  // Swapping which scope runs in which slot must also stay disjoint.
  const auto slot0_light = steady_pool("light", 2, 0);
  const auto slot1_heavy = steady_pool("heavy", 16, 1);
  for (gpusim::StreamId a : slot0_light) {
    EXPECT_EQ(slot1_heavy.count(a), 0u)
        << "stream " << a << " shared between concurrent batch slots";
  }
}

TEST_F(SchedulerTest, SteadyScopeForksAndJoinsOnlyLanesWithTasks) {
  // A steady scope with fewer tasks than pool streams forks from and
  // joins back to its home stream only on the lanes its tasks use: the
  // pool's other streams get no event record or wait, and every task
  // keeps the lane it has in a full-width scope.
  SchedulerOptions opt;
  opt.fixed_streams = 8;
  RuntimeScheduler& s = scheduler(opt);
  const gpusim::StreamId home = ctx.device().create_stream();

  // Issue one steady scope of `tasks` one-kernel tasks; no synchronize.
  const auto issue = [&](const std::string& scope, int tasks) {
    s.begin_scope(scope, static_cast<std::size_t>(tasks));
    std::vector<kern::Lane> lanes;
    for (int i = 0; i < tasks; ++i) {
      lanes.push_back(s.task_lane(static_cast<std::size_t>(i)));
      ctx.device().launch_kernel(lanes.back().stream, scope + "/work",
                                 cfg(8, 256), {5e7, 5e7 / 4}, {});
    }
    s.end_scope();
    return lanes;
  };
  kern::DagOpBinding op;
  op.home_stream = home;
  s.bind_dag_op(op);
  const std::vector<kern::Lane> pool = issue("wide", 8);
  ctx.device().synchronize();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pool[static_cast<std::size_t>(i)].lane, i);
    if (i == 0) {
      EXPECT_EQ(pool[0].stream, home);  // lane 0 runs on the home stream
    } else {
      EXPECT_NE(pool[static_cast<std::size_t>(i)].stream, home);
    }
  }

  const std::vector<kern::Lane> narrow = issue("narrow", 2);
  // The queued kernels keep the used lanes busy, so an idle stream
  // below really means nothing was queued on it.
  for (int i = 0; i < 2; ++i) {
    const kern::Lane& lane = narrow[static_cast<std::size_t>(i)];
    EXPECT_EQ(lane.stream, pool[static_cast<std::size_t>(i)].stream);
    EXPECT_EQ(lane.lane, i);
    EXPECT_FALSE(ctx.device().stream_idle(lane.stream));
  }
  for (int i = 2; i < 8; ++i) {
    EXPECT_TRUE(ctx.device().stream_idle(
        pool[static_cast<std::size_t>(i)].stream))
        << "pool stream " << i << " was forked or joined without a task";
  }
  ctx.device().synchronize();
  s.clear_dag_op();
}

TEST_F(SchedulerTest, BoundScopeRunsLaneZeroOnItsHomeStream) {
  // Under a binding, lane 0 runs on the home stream itself: stream FIFO
  // orders it against the home, so a one-task scope makes no event call
  // and a wider scope forks and joins only lanes 1 and up. Slice stream
  // 0 is still created but gets no work.
  SchedulerOptions opt;
  opt.fixed_streams = 8;
  RuntimeScheduler& s = scheduler(opt);
  const gpusim::StreamId home = ctx.device().create_stream();
  kern::DagOpBinding batch;
  batch.home_stream = home;
  s.bind_dag_op(batch);

  const auto issue = [&](int tasks) {
    s.begin_scope("conv/fwd", static_cast<std::size_t>(tasks));
    std::vector<kern::Lane> lanes;
    for (int i = 0; i < tasks; ++i) {
      lanes.push_back(s.task_lane(static_cast<std::size_t>(i)));
      ctx.device().launch_kernel(lanes.back().stream, "conv/fwd/work",
                                 cfg(8, 256), {5e7, 5e7 / 4}, {});
    }
    s.end_scope();
    return lanes;
  };

  const gpusim::EventId before = ctx.device().record_event(home);
  const std::vector<kern::Lane> one = issue(1);
  const gpusim::EventId after = ctx.device().record_event(home);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].stream, home);
  EXPECT_EQ(one[0].lane, 0);
  EXPECT_EQ(after, before + 1) << "a one-lane scope recorded an event";
  ctx.device().synchronize();

  const std::vector<kern::Lane> three = issue(3);
  // The slice's stream 0 already exists, so this creates nothing.
  const gpusim::StreamId slice0 =
      engine->stream_manager().acquire_slice(ctx, 0, s.max_lanes(), 1)[0];
  EXPECT_EQ(three[0].stream, home);
  for (int i = 1; i < 3; ++i) {
    const kern::Lane& lane = three[static_cast<std::size_t>(i)];
    EXPECT_EQ(lane.lane, i);
    EXPECT_NE(lane.stream, home);
    EXPECT_NE(lane.stream, slice0);
    EXPECT_FALSE(ctx.device().stream_idle(lane.stream));
  }
  EXPECT_NE(slice0, home);
  EXPECT_TRUE(ctx.device().stream_idle(slice0))
      << "slice stream 0 got work although lane 0 runs on the home stream";
  ctx.device().synchronize();
  s.clear_dag_op();
}

TEST_F(SchedulerTest, BindingStagerMergesOnlySteadyScopes) {
  // A binding's stager stages every launch of its steady scopes, and
  // end_scope flushes them as one merged launch per lane stream. A
  // profiling scope, and a steady scope without the binding, submit every
  // kernel.
  const gpusim::StreamId home = ctx.device().create_stream();
  kern::Stager stager;
  kern::DagOpBinding batch;
  batch.home_stream = home;
  batch.stager = &stager;
  kern::Launcher launcher;
  launcher.ctx = &ctx;
  launcher.mode = kern::ComputeMode::kTimingOnly;
  launcher.name_prefix = "conv/fwd";
  launcher.stager = &stager;
  gpusim::Timeline& timeline = ctx.device().timeline();
  timeline.set_enabled(true);

  // One scope of `tasks` tasks with two launches each. Returns the
  // kernels it submitted; `launches` counts the launches per lane stream.
  std::map<gpusim::StreamId, int> launches;
  const auto run = [&](RuntimeScheduler& s, int tasks) {
    timeline.clear();
    launches.clear();
    s.begin_scope("conv/fwd", static_cast<std::size_t>(tasks));
    for (int i = 0; i < tasks; ++i) {
      const kern::Launcher lane =
          launcher.with_stream(s.task_lane(static_cast<std::size_t>(i)).stream);
      for (const char* kernel : {"im2col", "gemm"}) {
        lane.launch(kernel, cfg(8, 256), {5e7, 5e7 / 4}, {});
        ++launches[lane.stream];
      }
    }
    s.end_scope();
    EXPECT_FALSE(stager.armed);
    EXPECT_EQ(stager.live, 0u);
    ctx.device().synchronize();
    return timeline.kernels();
  };

  RuntimeScheduler& s = scheduler();
  s.bind_dag_op(batch);
  EXPECT_EQ(run(s, 4).size(), 8u) << "a profiling scope was coalesced";
  const std::vector<gpusim::KernelRecord> steady = run(s, 4);
  EXPECT_GT(launches.size(), 1u) << "the steady scope ran on one stream";
  EXPECT_EQ(steady.size(), launches.size());
  for (const gpusim::KernelRecord& k : steady) {
    EXPECT_EQ(k.name, std::string("conv/fwd/coalesced")
                          .append(std::to_string(launches[k.stream])));
  }
  s.clear_dag_op();
  EXPECT_EQ(run(s, 4).size(), 8u) << "an unbound scope was coalesced";

  // A scope serialised by a stream-creation fault still runs steady on
  // the home stream, and coalesces there.
  SchedulerOptions fixed;
  fixed.fixed_streams = 4;
  RuntimeScheduler& faulty = scheduler(fixed);
  scuda::FaultConfig faults;
  faults.stream_create_failure_rate = 1.0;
  ctx.faults().arm(faults);
  faulty.bind_dag_op(batch);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<gpusim::KernelRecord> merged = run(faulty, 2);
    ASSERT_EQ(merged.size(), 1u) << "pass " << pass;
    EXPECT_EQ(merged[0].name, "conv/fwd/coalesced4");
    EXPECT_EQ(merged[0].stream, home);
  }
  EXPECT_TRUE(faulty.scope_serialized("conv/fwd"));
  faulty.clear_dag_op();
}

TEST_F(SchedulerTest, BindingsMustNotNest) {
  // One ambient binding at a time, as with scopes: a second bind before
  // clear_dag_op is rejected, and binding works again once cleared.
  RuntimeScheduler& s = scheduler();
  const kern::DagOpBinding op;
  s.bind_dag_op(op);
  EXPECT_THROW(s.bind_dag_op(op), glp::InvalidArgument);
  s.clear_dag_op();
  EXPECT_NO_THROW(s.bind_dag_op(op));
  s.clear_dag_op();
}

TEST_F(SchedulerTest, BoundConcurrentScopesSolveJointly) {
  // A scope profiled under a binding that names concurrent scopes waits
  // for its whole group to profile; then the analyzer sizes the group's
  // pools in one joint solve, under either objective. Bindings without
  // concurrent scopes, and unbound scopes, keep solo decisions.
  for (const glp4nn::Objective objective :
       {glp4nn::Objective::kThreads, glp4nn::Objective::kDurationWeighted}) {
    SCOPED_TRACE(objective == glp4nn::Objective::kThreads ? "Eq. 3"
                                                           : "weighted");
    SchedulerOptions opt;
    opt.objective = objective;
    RuntimeScheduler& s = scheduler(opt);
    const auto run_bound = [&](const std::string& scope,
                               std::vector<std::string> concurrent) {
      kern::DagOpBinding op;
      op.concurrent_scopes = std::move(concurrent);
      s.bind_dag_op(op);
      run_scope(s, scope, 8);
      s.clear_dag_op();
    };
    run_bound("a", {});
    run_scope(s, "solo", 8);
    EXPECT_EQ(s.dag_joint_groups(), 0u);
    EXPECT_EQ(s.analyzer().joint_solves(), 0u);

    run_bound("b", {"c"});
    EXPECT_EQ(s.dag_joint_groups(), 0u);  // "c" has not profiled yet
    run_bound("c", {"b"});
    EXPECT_EQ(s.dag_joint_groups(), 1u);
    EXPECT_EQ(s.analyzer().joint_solves(), 1u);
  }
}

TEST_F(SchedulerTest, PlanDagRejectsForwardAndUnknownDeps) {
  RuntimeScheduler& s = scheduler();
  // A dep must name an earlier op: self, later, unknown and negative
  // deps are all rejected.
  const std::vector<std::vector<kern::DagOp>> bad = {
      {{"a", {0}}},
      {{"a", {1}}, {"b", {}}},
      {{"a", {}}, {"b", {5}}},
      {{"a", {}}, {"b", {-1}}},
  };
  for (const std::vector<kern::DagOp>& ops : bad) {
    EXPECT_THROW(s.plan_dag(ops), glp::InvalidArgument);
  }
  const std::vector<kern::DagPlacement> chain =
      s.plan_dag({{"a", {}}, {"b", {0}}});
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[1].chain, chain[0].chain);
  EXPECT_EQ(chain[1].stream, chain[0].stream);
}

TEST_F(SchedulerTest, PlanDagSeparatesOnlyConcurrentBranches) {
  // a -> {b, c} -> d -> e: only b and c can overlap in time.
  RuntimeScheduler& s = scheduler();
  const std::vector<kern::DagPlacement> p = s.plan_dag(
      {{"a", {}}, {"b", {0}}, {"c", {0}}, {"d", {1, 2}}, {"e", {3}}});
  ASSERT_EQ(p.size(), 5u);
  const kern::DagPlacement &a = p[0], &b = p[1], &c = p[2], &d = p[3],
                           &e = p[4];

  // b extends a's chain; c opens a new one, which d and e extend.
  EXPECT_EQ(b.chain, a.chain);
  EXPECT_NE(c.chain, a.chain);
  EXPECT_EQ(d.chain, c.chain);
  EXPECT_EQ(e.chain, c.chain);

  // The concurrent branches land on disjoint slots and streams.
  EXPECT_NE(b.slot, c.slot);
  EXPECT_NE(b.stream, c.stream);
  for (const kern::DagPlacement& op : p) EXPECT_EQ(op.num_slots, 2);

  // Only ops that neither reaches the other are concurrent: a reaches
  // every op, and d and e are reached by both branches.
  using Scopes = std::vector<std::string>;
  EXPECT_EQ(b.concurrent_scopes, Scopes{"c"});
  EXPECT_EQ(c.concurrent_scopes, Scopes{"b"});
  EXPECT_TRUE(a.concurrent_scopes.empty());
  EXPECT_TRUE(d.concurrent_scopes.empty());
  EXPECT_TRUE(e.concurrent_scopes.empty());

  // A pure chain x -> y -> z has nothing to overlap.
  const std::vector<kern::DagPlacement> line =
      s.plan_dag({{"x", {}}, {"y", {0}}, {"z", {1}}});
  ASSERT_EQ(line.size(), 3u);
  for (const kern::DagPlacement& op : line) {
    EXPECT_EQ(op.chain, 0);
    EXPECT_EQ(op.slot, 0);
    EXPECT_EQ(op.num_slots, 1);
    EXPECT_TRUE(op.concurrent_scopes.empty());
  }
}

// StreamManager unit tests live in stream_manager_test.cpp.

TEST(Engine, SharedTrackerPrivateSchedulers) {
  // Fig. 5's layout: one engine, two devices → two schedulers/analyzers,
  // one tracker, one stream manager.
  scuda::Context a(gpusim::DeviceTable::p100());
  scuda::Context b(gpusim::DeviceTable::k40c());
  Glp4nnEngine engine;
  RuntimeScheduler& sa = engine.scheduler_for(a);
  RuntimeScheduler& sb = engine.scheduler_for(b);
  EXPECT_NE(&sa, &sb);
  EXPECT_EQ(&engine.scheduler_for(a), &sa);  // cached
  EXPECT_NE(engine.analyzer_for(a), nullptr);
  EXPECT_NE(engine.analyzer_for(a), engine.analyzer_for(b));
}

}  // namespace
