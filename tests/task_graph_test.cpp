// Tests of the dependency-aware task-graph scheduler (paper §6 future
// work): edges always execute in order, independent tasks overlap, and
// malformed graphs are rejected.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/task_graph.hpp"

namespace {

using glp4nn::TaskGraph;

gpusim::LaunchConfig cfg(unsigned blocks, unsigned threads) {
  gpusim::LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  return c;
}

TaskGraph::TaskFn kernel_task(double flops, std::function<void()> work = {}) {
  return [flops, work](const kern::Launcher& L) {
    L.launch("work", cfg(8, 256), {flops, flops / 4}, work);
  };
}

std::vector<gpusim::StreamId> make_pool(scuda::Context& ctx, int n) {
  std::vector<gpusim::StreamId> pool;
  for (int i = 0; i < n; ++i) pool.push_back(ctx.device().create_stream());
  return pool;
}

TEST(TaskGraph, LinearChainRunsInOrder) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  const auto pool = make_pool(ctx, 4);
  TaskGraph g;
  std::vector<int> order;
  int prev = -1;
  for (int i = 0; i < 6; ++i) {
    std::vector<int> deps;
    if (prev >= 0) deps.push_back(prev);
    prev = g.add_task("t" + std::to_string(i),
                      kernel_task(1e6, [&order, i] { order.push_back(i); }),
                      deps);
  }
  g.run(ctx, pool, kern::ComputeMode::kNumeric);
  ctx.device().synchronize();
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TaskGraph, DiamondDependenciesRespectEdges) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  const auto pool = make_pool(ctx, 4);
  TaskGraph g;
  std::vector<std::string> order;
  auto track = [&order](const std::string& name, double flops) {
    return kernel_task(flops, [&order, name] { order.push_back(name); });
  };
  const int a = g.add_task("a", track("a", 1e7));
  const int b = g.add_task("b", track("b", 5e7), {a});   // slow branch
  const int c = g.add_task("c", track("c", 1e6), {a});   // fast branch
  g.add_task("d", track("d", 1e6), {b, c});
  g.run(ctx, pool, kern::ComputeMode::kNumeric);
  ctx.device().synchronize();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "a");
  EXPECT_EQ(order.back(), "d");  // d waited for BOTH branches
}

TEST(TaskGraph, IndependentTasksOverlap) {
  auto run = [](int streams) {
    scuda::Context ctx(gpusim::DeviceTable::p100());
    const auto pool = make_pool(ctx, streams);
    TaskGraph g;
    for (int i = 0; i < 8; ++i) {
      g.add_task(std::string("t").append(std::to_string(i)), kernel_task(4e7));
    }
    g.run(ctx, pool, kern::ComputeMode::kTimingOnly);
    ctx.device().synchronize();
    return ctx.device().device_now();
  };
  EXPECT_LT(run(8), run(1) * 0.6);
}

TEST(TaskGraph, CrossStreamEdgeForcesWait) {
  // Producer is slow and the consumer is placed after an independent task
  // on another stream; the event must still delay it.
  scuda::Context ctx(gpusim::DeviceTable::p100());
  const auto pool = make_pool(ctx, 2);
  TaskGraph g;
  std::vector<std::string> order;
  auto track = [&order](const std::string& name, double flops) {
    return kernel_task(flops, [&order, name] { order.push_back(name); });
  };
  const int slow = g.add_task("slow", track("slow", 4e8));  // stream 0
  g.add_task("other", track("other", 1e6));                 // stream 1
  // depends on slow but would round-robin onto stream 0 anyway; force a
  // cross-stream edge by depending on both:
  const int other = 1;
  g.add_task("sink", track("sink", 1e6), {slow, other});
  g.run(ctx, pool, kern::ComputeMode::kNumeric);
  ctx.device().synchronize();
  EXPECT_EQ(order.back(), "sink");
}

TEST(TaskGraph, RejectsForwardAndUnknownDeps) {
  TaskGraph g;
  EXPECT_THROW(g.add_task("x", kernel_task(1), {0}), glp::InvalidArgument);
  g.add_task("a", kernel_task(1));
  EXPECT_THROW(g.add_task("b", kernel_task(1), {5}), glp::InvalidArgument);
  EXPECT_THROW(g.add_task("c", kernel_task(1), {2}), glp::InvalidArgument);
}

TEST(TaskGraph, AccessorsAndEmptyPoolRejected) {
  TaskGraph g;
  const int a = g.add_task("alpha", kernel_task(1));
  g.add_task("beta", kernel_task(1), {a});
  EXPECT_EQ(g.size(), 2);
  EXPECT_EQ(g.name(0), "alpha");
  EXPECT_EQ(g.deps(1), std::vector<int>{0});
  EXPECT_THROW(g.name(7), glp::InvalidArgument);

  scuda::Context ctx(gpusim::DeviceTable::p100());
  EXPECT_THROW(g.run(ctx, {}, kern::ComputeMode::kTimingOnly),
               glp::InvalidArgument);
}

// Property: random DAGs always execute in a valid topological order.
class TaskGraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TaskGraphProperty, RandomDagHonoursAllEdges) {
  glp::Rng rng(GetParam());
  scuda::Context ctx(gpusim::DeviceTable::titan_xp());
  const auto pool = make_pool(ctx, 1 + static_cast<int>(rng.next_below(6)));

  TaskGraph g;
  const int n = 5 + static_cast<int>(rng.next_below(20));
  std::vector<int> finish_order;
  std::vector<std::vector<int>> deps_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<int> deps;
    for (int d = 0; d < i; ++d) {
      if (rng.next_below(4) == 0) deps.push_back(d);
    }
    deps_of[static_cast<std::size_t>(i)] = deps;
    g.add_task("t" + std::to_string(i),
               kernel_task(1e5 + static_cast<double>(rng.next_below(100)) * 1e5,
                           [&finish_order, i] { finish_order.push_back(i); }),
               deps);
  }
  g.run(ctx, pool, kern::ComputeMode::kNumeric);
  ctx.device().synchronize();

  ASSERT_EQ(finish_order.size(), static_cast<std::size_t>(n));
  std::vector<int> position(static_cast<std::size_t>(n));
  for (int pos = 0; pos < n; ++pos) {
    position[static_cast<std::size_t>(finish_order[static_cast<std::size_t>(pos)])] = pos;
  }
  for (int i = 0; i < n; ++i) {
    for (int d : deps_of[static_cast<std::size_t>(i)]) {
      EXPECT_LT(position[static_cast<std::size_t>(d)],
                position[static_cast<std::size_t>(i)])
          << "task " << i << " finished before its dependency " << d
          << " (seed " << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, TaskGraphProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
