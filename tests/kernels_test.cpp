#include <gtest/gtest.h>

#include "common/check.hpp"

#include "kernels/blas.hpp"
#include "kernels/nn.hpp"

namespace {

using kern::ComputeMode;
using kern::Launcher;

struct Fixture : ::testing::Test {
  Fixture() : ctx(gpusim::DeviceTable::p100()) {
    launcher.ctx = &ctx;
    launcher.mode = ComputeMode::kNumeric;
    ctx.device().timeline().set_enabled(true);
  }
  scuda::Context ctx;
  Launcher launcher;

  const gpusim::KernelRecord& last_record() {
    ctx.device().synchronize();
    const auto& recs = ctx.device().timeline().kernels();
    EXPECT_FALSE(recs.empty());
    return recs.back();
  }
};

// --- launch heuristics -------------------------------------------------------------

TEST(GemmTile, SelectionBySize) {
  EXPECT_STREQ(kern::select_gemm_tile(256, 256).tag, "128x128");
  EXPECT_STREQ(kern::select_gemm_tile(96, 729).tag, "64x64");
  EXPECT_STREQ(kern::select_gemm_tile(20, 576).tag, "32x32");
  EXPECT_STREQ(kern::select_gemm_tile(1, 1).tag, "32x32");
}

TEST_F(Fixture, SgemmLaunchConfigMatchesTile) {
  std::vector<float> a(96 * 25), b(25 * 729), c(96 * 729);
  kern::sgemm(launcher, false, false, 96, 729, 25, 1.0f, a.data(), 25, b.data(),
              729, 0.0f, c.data(), 729);
  const auto& rec = last_record();
  EXPECT_EQ(rec.name, "sgemm_64x64_nn");
  EXPECT_EQ(rec.config.grid.y, 2u);   // ceil(96/64)
  EXPECT_EQ(rec.config.grid.x, 12u);  // ceil(729/64)
  EXPECT_EQ(rec.config.block.x, 128u);
  EXPECT_EQ(rec.config.regs_per_thread, 90);
  EXPECT_EQ(rec.config.smem_static_bytes, 8u * 1024u);
}

TEST_F(Fixture, Im2colConfigMatchesCaffe) {
  // One thread per (channel, output pixel); 256-thread blocks; 33 regs —
  // the exact configuration quoted in the paper's workflow example.
  std::vector<float> im(3 * 32 * 32), col(3 * 25 * 32 * 32);
  kern::im2col(launcher, im.data(), 3, 32, 32, 5, 5, 2, 2, 1, 1, col.data());
  const auto& rec = last_record();
  EXPECT_EQ(rec.name, "im2col_gpu_kernel");
  EXPECT_EQ(rec.config.block.x, 256u);
  EXPECT_EQ(rec.config.regs_per_thread, 33);
  EXPECT_EQ(rec.config.grid.x, 12u);  // ceil(3*32*32 / 256)
}

TEST_F(Fixture, NamePrefixScopesKernels) {
  Launcher scoped = launcher.with_prefix("conv1/fwd");
  std::vector<float> x(64);
  kern::sfill(scoped, 64, 0.0f, x.data());
  EXPECT_EQ(last_record().name, "conv1/fwd/fill_kernel");
}

TEST_F(Fixture, WithStreamRoutesLaunch) {
  const auto s = ctx.device().create_stream();
  std::vector<float> x(64);
  kern::sfill(launcher.with_stream(s), 64, 1.0f, x.data());
  EXPECT_EQ(last_record().stream, s);
}

// --- numeric vs timing-only --------------------------------------------------------

TEST_F(Fixture, TimingOnlySkipsMath) {
  std::vector<float> x(16, 1.0f);
  Launcher timing = launcher;
  timing.mode = ComputeMode::kTimingOnly;
  kern::sscal(timing, 16, 5.0f, x.data());
  ctx.device().synchronize();
  EXPECT_FLOAT_EQ(x[0], 1.0f);  // untouched
  kern::sscal(launcher, 16, 5.0f, x.data());
  ctx.device().synchronize();
  EXPECT_FLOAT_EQ(x[0], 5.0f);
}

TEST_F(Fixture, TimingOnlyStillSimulatesDuration) {
  Launcher timing = launcher;
  timing.mode = ComputeMode::kTimingOnly;
  std::vector<float> x(1 << 16);
  const double before = ctx.device().device_now();
  kern::sfill(timing, x.size(), 0.0f, x.data());
  ctx.device().synchronize();
  EXPECT_GT(ctx.device().device_now(), before);
}

// --- numeric wrappers ------------------------------------------------------------------

TEST_F(Fixture, SgemmComputes) {
  std::vector<float> a = {1, 2, 3, 4};       // 2x2
  std::vector<float> b = {5, 6, 7, 8};       // 2x2
  std::vector<float> c = {0, 0, 0, 0};
  kern::sgemm(launcher, false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2,
              0.0f, c.data(), 2);
  ctx.device().synchronize();
  EXPECT_EQ(c, (std::vector<float>{19, 22, 43, 50}));
}

TEST_F(Fixture, SgemvComputesBothTransposes) {
  // A = [[1,2,3],[4,5,6]] (2x3), x3 = [1,1,1], x2 = [1,1].
  std::vector<float> a = {1, 2, 3, 4, 5, 6};
  std::vector<float> x3 = {1, 1, 1}, x2 = {1, 1};
  std::vector<float> y2 = {10, 20}, y3 = {0, 0, 0};
  kern::sgemv(launcher, false, 2, 3, 1.0f, a.data(), 3, x3.data(), 1.0f, y2.data());
  kern::sgemv(launcher, true, 2, 3, 2.0f, a.data(), 3, x2.data(), 0.0f, y3.data());
  ctx.device().synchronize();
  EXPECT_EQ(y2, (std::vector<float>{16, 35}));       // y += A·x
  EXPECT_EQ(y3, (std::vector<float>{10, 14, 18}));   // y = 2·Aᵀ·x
}

TEST_F(Fixture, SaxpySscalSfill) {
  std::vector<float> x = {1, 1}, y = {1, 2};
  kern::saxpy(launcher, 2, 3.0f, x.data(), y.data());
  kern::sscal(launcher, 2, 2.0f, y.data());
  ctx.device().synchronize();
  EXPECT_EQ(y, (std::vector<float>{8, 10}));
  kern::sfill(launcher, 2, 0.5f, y.data());
  ctx.device().synchronize();
  EXPECT_EQ(y, (std::vector<float>{0.5f, 0.5f}));
}

TEST_F(Fixture, SgdUpdateAppliesMomentum) {
  std::vector<float> grad = {1.0f}, hist = {0.5f}, param = {10.0f};
  kern::sgd_update(launcher, 1, 0.1f, 0.9f, grad.data(), hist.data(), param.data());
  ctx.device().synchronize();
  EXPECT_FLOAT_EQ(hist[0], 0.9f * 0.5f + 0.1f * 1.0f);
  EXPECT_FLOAT_EQ(param[0], 10.0f - hist[0]);
}

TEST_F(Fixture, ReduceLanesKernel) {
  std::vector<float> src = {1, 2, 10, 20, 100, 200};
  std::vector<float> dst = {0, 0};
  kern::reduce_lanes(launcher, 3, 2, src.data(), dst.data());
  ctx.device().synchronize();
  EXPECT_EQ(dst, (std::vector<float>{111, 222}));
}

TEST_F(Fixture, CopyAndAddSlab) {
  // 2 rows x 2 cols from a stride-3 source into a stride-4 dest.
  std::vector<float> src = {1, 2, 9, 3, 4, 9};
  std::vector<float> dst(8, 0.0f);
  kern::copy_slab(launcher, 2, 2, src.data(), 3, dst.data(), 4);
  ctx.device().synchronize();
  EXPECT_EQ(dst, (std::vector<float>{1, 2, 0, 0, 3, 4, 0, 0}));
  kern::add_slab(launcher, 2, 2, src.data(), 3, dst.data(), 4);
  ctx.device().synchronize();
  EXPECT_EQ(dst[0], 2.0f);
  EXPECT_EQ(dst[5], 8.0f);
}

// --- launch staging -------------------------------------------------------------------

TEST_F(Fixture, StagerReusesGroupsWithoutReflushingThem) {
  // A long-lived stager keeps its groups across flushes, and a spent
  // group is never flushed again: the first window merges two kernels on
  // stream A into one launch; the second stages one kernel on stream B,
  // which launches alone under its own name and adds nothing on A.
  const auto a = ctx.device().create_stream();
  const auto b = ctx.device().create_stream();
  kern::Stager stager;
  Launcher staged = launcher;
  staged.stager = &stager;
  stager.armed = true;
  std::vector<float> x(64), y(64), z(64);

  kern::sfill(staged.with_stream(a), x.size(), 1.0f, x.data());
  kern::sfill(staged.with_stream(a), y.size(), 2.0f, y.data());
  stager.flush(ctx, "first/merged");
  ctx.device().synchronize();
  const auto& recs = ctx.device().timeline().kernels();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "first/merged2");
  EXPECT_EQ(recs[0].stream, a);
  EXPECT_EQ(x[0], 1.0f);
  EXPECT_EQ(y[0], 2.0f);

  x[0] = 0.0f;
  kern::sfill(staged.with_stream(b), z.size(), 3.0f, z.data());
  stager.flush(ctx, "second/merged");
  ctx.device().synchronize();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].name, "fill_kernel");
  EXPECT_EQ(recs[1].stream, b);
  EXPECT_EQ(z[0], 3.0f);
  EXPECT_EQ(x[0], 0.0f) << "the first window's functors ran again";
}

// --- dispatchers ----------------------------------------------------------------------

TEST(SerialDispatcher, AlwaysDefaultStream) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  kern::SerialDispatcher d(ctx);
  d.begin_scope("s", 100);
  for (std::size_t i : {0u, 5u, 99u}) {
    EXPECT_EQ(d.task_lane(i).stream, gpusim::kDefaultStream);
    EXPECT_EQ(d.task_lane(i).lane, 0);
  }
  d.end_scope();
  EXPECT_EQ(d.max_lanes(), 1);
}

}  // namespace
