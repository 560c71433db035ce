// Race checker unit tests: each ordering invariant is violated by a
// hand-built synthetic timeline and must be flagged, and a real
// scheduler-produced timeline must come back clean.

#include <gtest/gtest.h>

#include "core/glp4nn.hpp"
#include "minicaffe/models.hpp"
#include "minicaffe/solver.hpp"
#include "test_helpers.hpp"
#include "testing/race_checker.hpp"

namespace {

using glpfuzz::RaceViolation;

gpusim::KernelRecord kernel(std::uint64_t corr, gpusim::StreamId stream,
                            double submit, double start, double end) {
  gpusim::KernelRecord k;
  k.correlation_id = corr;
  k.name = std::string("k").append(std::to_string(corr));
  k.stream = stream;
  k.submit_ns = submit;
  k.start_ns = start;
  k.end_ns = end;
  return k;
}

bool has_kind(const glpfuzz::RaceReport& report, RaceViolation::Kind kind) {
  for (const RaceViolation& v : report.violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

TEST(RaceChecker, EmptyAndCleanTimelinesPass) {
  gpusim::Timeline t;
  t.set_enabled(true);
  const gpusim::DeviceProps props = gpusim::DeviceTable::p100();
  EXPECT_TRUE(glpfuzz::check_timeline(t, props).clean());

  // Two streams, properly fenced by a default-stream op.
  t.add_kernel(kernel(1, 0, 0, 0, 100));    // default: barrier
  t.add_kernel(kernel(2, 1, 10, 100, 200));  // waits for corr 1
  t.add_kernel(kernel(3, 2, 20, 100, 250));  // concurrent with corr 2
  t.add_kernel(kernel(4, 0, 30, 250, 300));  // waits for everything
  const glpfuzz::RaceReport report = glpfuzz::check_timeline(t, props);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.ops_checked, 4u);
  EXPECT_EQ(report.peak_concurrency, 2);
}

TEST(RaceChecker, DetectsStreamFifoViolation) {
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(kernel(1, 1, 0, 0, 100));
  t.add_kernel(kernel(2, 1, 0, 50, 150));  // starts before corr 1 ends
  const auto report =
      glpfuzz::check_timeline(t, gpusim::DeviceTable::p100());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, RaceViolation::Kind::kStreamFifo));
}

TEST(RaceChecker, DetectsDefaultStreamBarrierBefore) {
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(kernel(1, 1, 0, 0, 100));
  t.add_kernel(kernel(2, 0, 0, 50, 150));  // stream-0 op starts too early
  const auto report =
      glpfuzz::check_timeline(t, gpusim::DeviceTable::p100());
  EXPECT_TRUE(has_kind(report, RaceViolation::Kind::kDefaultBarrierBefore));
}

TEST(RaceChecker, DetectsDefaultStreamBarrierAfter) {
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(kernel(1, 0, 0, 0, 100));
  t.add_kernel(kernel(2, 1, 0, 50, 150));  // ignores the default barrier
  const auto report =
      glpfuzz::check_timeline(t, gpusim::DeviceTable::p100());
  EXPECT_TRUE(has_kind(report, RaceViolation::Kind::kDefaultBarrierAfter));
}

TEST(RaceChecker, DetectsConcurrencyCapViolation) {
  gpusim::DeviceProps props = gpusim::DeviceTable::p100();
  props.max_concurrent_kernels = 2;
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(kernel(1, 1, 0, 0, 100));
  t.add_kernel(kernel(2, 2, 0, 10, 100));
  t.add_kernel(kernel(3, 3, 0, 20, 100));  // third resident kernel
  const auto report = glpfuzz::check_timeline(t, props);
  EXPECT_TRUE(has_kind(report, RaceViolation::Kind::kConcurrencyCap));
  EXPECT_EQ(report.peak_concurrency, 3);

  // Back-to-back on the cap boundary is legal: end == start.
  gpusim::Timeline ok;
  ok.set_enabled(true);
  ok.add_kernel(kernel(1, 1, 0, 0, 100));
  ok.add_kernel(kernel(2, 2, 0, 10, 100));
  ok.add_kernel(kernel(3, 3, 0, 100, 200));  // admitted as corr 1/2 retire
  EXPECT_TRUE(glpfuzz::check_timeline(ok, props).clean());
}

TEST(RaceChecker, DetectsDuplicateCorrelationIds) {
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(kernel(7, 1, 0, 0, 100));
  t.add_kernel(kernel(7, 2, 0, 100, 200));
  const auto report =
      glpfuzz::check_timeline(t, gpusim::DeviceTable::p100());
  EXPECT_TRUE(has_kind(report, RaceViolation::Kind::kDuplicateCorrelation));
}

TEST(RaceChecker, DetectsNonMonotonicTimestamps) {
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(kernel(1, 1, 50, 40, 100));  // started before submitted
  t.add_kernel(kernel(2, 1, 0, 200, 150));  // ended before it started
  const auto report =
      glpfuzz::check_timeline(t, gpusim::DeviceTable::p100());
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_TRUE(has_kind(report, RaceViolation::Kind::kNonMonotonic));
}

TEST(RaceChecker, MarkersMirrorViolations) {
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(kernel(1, 1, 0, 0, 100));
  t.add_kernel(kernel(2, 1, 0, 50, 150));
  const auto report =
      glpfuzz::check_timeline(t, gpusim::DeviceTable::p100());
  const auto markers = glpfuzz::violation_markers(report);
  ASSERT_EQ(markers.size(), report.violations.size());
  EXPECT_EQ(markers[0].stream, report.violations[0].stream);
  EXPECT_EQ(markers[0].ts_ns, report.violations[0].ts_ns);
  EXPECT_NE(markers[0].name.find("stream-fifo"), std::string::npos);
}

gpusim::KernelRecord named_kernel(const std::string& name, std::uint64_t corr,
                                  gpusim::StreamId stream, double start,
                                  double end) {
  gpusim::KernelRecord k = kernel(corr, stream, start, start, end);
  k.name = name;
  return k;
}

TEST(RaceChecker, OpScheduleAcceptsConcurrentSiblingBranches) {
  // A diamond: a -> {b, c} -> d. b and c fully overlap on different
  // streams — legitimate DAG concurrency, NOT a race.
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(named_kernel("a/fwd/k0", 1, 1, 0, 100));
  t.add_kernel(named_kernel("b/fwd/k0", 2, 1, 100, 200));
  t.add_kernel(named_kernel("c/fwd/k0", 3, 2, 100, 210));
  t.add_kernel(named_kernel("d/fwd/k0", 4, 1, 210, 300));
  const std::vector<mc::NetDag::ScheduledOp> ops = {
      {"a/fwd", 1, {}},
      {"b/fwd", 1, {0}},
      {"c/fwd", 2, {0}},
      {"d/fwd", 1, {1, 2}},
  };
  const glpfuzz::OpScheduleReport report = glpfuzz::check_op_schedule(t, ops);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.ops_matched, 4u);
  EXPECT_EQ(report.edges_checked, 4u);
  EXPECT_EQ(report.peak_op_concurrency, 2);  // b and c overlap
}

TEST(RaceChecker, OpScheduleFlagsConsumerStartingBeforeProducerEnded) {
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(named_kernel("a/fwd/k0", 1, 1, 0, 100));
  t.add_kernel(named_kernel("b/fwd/k0", 2, 2, 50, 150));  // a -> b violated
  const std::vector<mc::NetDag::ScheduledOp> ops = {
      {"a/fwd", 1, {}},
      {"b/fwd", 2, {0}},
  };
  const glpfuzz::OpScheduleReport report = glpfuzz::check_op_schedule(t, ops);
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations.front().kind,
            RaceViolation::Kind::kDagOrderViolation);
  EXPECT_EQ(report.violations.front().correlation_id, 2u);
}

TEST(RaceChecker, OpScheduleKernellessOpsPassVacuously) {
  // Absorbed / fused-away ops contribute no kernels; edges touching them
  // are skipped, and a multi-kernel op's span is its min-start/max-end.
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(named_kernel("a/fwd/k0", 1, 1, 0, 100));
  t.add_kernel(named_kernel("a/fwd/k1", 2, 2, 10, 120));
  t.add_kernel(named_kernel("c/fwd/k0", 3, 1, 120, 200));
  const std::vector<mc::NetDag::ScheduledOp> ops = {
      {"a/fwd", 1, {}},
      {"b/fwd", 1, {0}},  // no kernels on the trace
      {"c/fwd", 1, {0, 1}},
  };
  const glpfuzz::OpScheduleReport report = glpfuzz::check_op_schedule(t, ops);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.ops_matched, 2u);
  EXPECT_EQ(report.edges_checked, 1u);  // only a -> c is checkable
}

TEST(RaceChecker, OpSchedulePrefixMatchRespectsBoundaries) {
  // "conv1/fwd" must not claim "conv10/fwd/..." kernels.
  gpusim::Timeline t;
  t.set_enabled(true);
  t.add_kernel(named_kernel("conv10/fwd/k0", 1, 1, 0, 100));
  t.add_kernel(named_kernel("conv1/fwd/k0", 2, 1, 100, 200));
  const std::vector<mc::NetDag::ScheduledOp> ops = {
      {"conv1/fwd", 1, {}},
  };
  const glpfuzz::OpScheduleReport report = glpfuzz::check_op_schedule(t, ops);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.ops_matched, 1u);
  EXPECT_EQ(report.peak_op_concurrency, 1);
}

TEST(RaceChecker, RealSchedulerTimelineIsClean) {
  // A real multi-stream training run must satisfy every invariant.
  glp4nn::SchedulerOptions opts;
  opts.fixed_streams = 4;
  glptest::GlpEnv glp(gpusim::DeviceTable::p100(), opts);
  glp.ctx.device().timeline().set_enabled(true);
  mc::Net net(mc::models::lenet(16), glp.ec);
  mc::SgdSolver solver(net, {});
  solver.step(2);
  glp.sync();

  const auto report = glpfuzz::check_timeline(glp.ctx.device().timeline(),
                                              glp.ctx.props());
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.ops_checked, 0u);
  EXPECT_LE(report.peak_concurrency,
            glp.ctx.props().max_concurrent_kernels);
}

}  // namespace
