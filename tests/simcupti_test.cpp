#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "simcupti/activity.hpp"

namespace {

using scupti::ActivityApi;
using scupti::ActivityKind;
using scupti::ActivityRecordView;

gpusim::LaunchConfig cfg(unsigned blocks, unsigned threads, int regs = 33,
                         std::size_t smem_static = 0, std::size_t smem_dyn = 0) {
  gpusim::LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  c.regs_per_thread = regs;
  c.smem_static_bytes = smem_static;
  c.smem_dynamic_bytes = smem_dyn;
  return c;
}

// Test harness: collects completed buffers for parsing.
struct Collector {
  std::vector<std::unique_ptr<std::uint8_t[]>> storage;
  std::vector<std::pair<std::uint8_t*, std::size_t>> completed;
  std::size_t buffer_size = 8 * 1024;

  void attach(ActivityApi& api) {
    api.register_callbacks(
        [this](std::uint8_t** buf, std::size_t* size) {
          storage.push_back(std::make_unique<std::uint8_t[]>(buffer_size));
          *buf = storage.back().get();
          *size = buffer_size;
        },
        [this](std::uint8_t* buf, std::size_t, std::size_t valid) {
          completed.emplace_back(buf, valid);
        });
  }

  std::vector<ActivityRecordView> all_records() const {
    std::vector<ActivityRecordView> out;
    for (const auto& [buf, valid] : completed) {
      auto records = ActivityApi::parse(buf, valid);
      out.insert(out.end(), records.begin(), records.end());
    }
    return out;
  }
};

TEST(Activity, KernelRecordCarriesLaunchConfiguration) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  Collector col;
  col.attach(api);
  api.enable(ActivityKind::kKernel);

  const auto s = ctx.device().create_stream();
  const auto corr = ctx.device().launch_kernel(
      s, "im2col_gpu_kernel", cfg(18, 256, 33, 512, 256), {1e6, 1e6}, {});
  ctx.device().synchronize();
  api.flush_all();

  const auto records = col.all_records();
  ASSERT_EQ(records.size(), 1u);
  const auto& k = records[0].kernel;
  EXPECT_EQ(records[0].kind, ActivityKind::kKernel);
  EXPECT_EQ(k.correlation_id, corr);
  EXPECT_STREQ(k.name, "im2col_gpu_kernel");
  EXPECT_EQ(k.grid_x, 18u);  // the paper's §3.1 example: [18,1,1] grid
  EXPECT_EQ(k.block_x, 256u);
  EXPECT_EQ(k.registers_per_thread, 33);  // ... and 33 registers per thread
  EXPECT_EQ(k.static_shared_memory, 512u);
  EXPECT_EQ(k.dynamic_shared_memory, 256u);
  EXPECT_EQ(k.stream_id, s);
  EXPECT_GT(k.end_ns, k.start_ns);
}

TEST(Activity, DisabledKindCollectsNothing) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  Collector col;
  col.attach(api);
  // kernel activity NOT enabled
  ctx.device().launch_kernel(gpusim::kDefaultStream, "k", cfg(4, 128), {1e5, 1e5}, {});
  ctx.device().synchronize();
  api.flush_all();
  EXPECT_TRUE(col.all_records().empty());
}

TEST(Activity, MemcpyRecords) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  Collector col;
  col.attach(api);
  api.enable(ActivityKind::kMemcpy);
  char buf[128];
  ctx.memcpy(buf, buf, 128, /*h2d=*/false);
  api.flush_all();
  const auto records = col.all_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, ActivityKind::kMemcpy);
  EXPECT_EQ(records[0].memcpy_.bytes, 128u);
  EXPECT_EQ(records[0].memcpy_.host_to_device, 0);
}

TEST(Activity, EnableWithoutCallbacksThrows) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  EXPECT_THROW(api.enable(ActivityKind::kKernel), glp::InvalidArgument);
}

TEST(Activity, ManyRecordsSpanMultipleBuffers) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  Collector col;
  col.buffer_size = 512;  // force frequent buffer turnover
  col.attach(api);
  api.enable(ActivityKind::kKernel);
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    ctx.device().launch_kernel(gpusim::kDefaultStream,
                               std::string("k").append(std::to_string(i)),
                               cfg(2, 64), {1e4, 1e4}, {});
  }
  ctx.device().synchronize();
  api.flush_all();
  EXPECT_GT(col.completed.size(), 1u);
  EXPECT_EQ(col.all_records().size(), static_cast<std::size_t>(n));
  EXPECT_EQ(api.dropped_records(), 0u);
}

TEST(Activity, RecordsDroppedWhenNoBufferProvided) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  api.register_callbacks(
      [](std::uint8_t** buf, std::size_t* size) {
        *buf = nullptr;
        *size = 0;
      },
      [](std::uint8_t*, std::size_t, std::size_t) {});
  api.enable(ActivityKind::kKernel);
  ctx.device().launch_kernel(gpusim::kDefaultStream, "k", cfg(1, 32), {1e3, 1e3}, {});
  ctx.device().synchronize();
  EXPECT_EQ(api.dropped_records(), 1u);
}

TEST(Activity, RuntimeMemoryAccountsArenaAndBuffers) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  Collector col;
  col.attach(api);
  EXPECT_EQ(api.runtime_memory_bytes(), ActivityApi::kRuntimeArenaBytes);
  api.enable(ActivityKind::kKernel);
  ctx.device().launch_kernel(gpusim::kDefaultStream, "k", cfg(1, 32), {1e3, 1e3}, {});
  ctx.device().synchronize();
  // One outstanding (not yet flushed) buffer.
  EXPECT_EQ(api.runtime_memory_bytes(),
            ActivityApi::kRuntimeArenaBytes + col.buffer_size);
  api.flush_all();
  EXPECT_EQ(api.runtime_memory_bytes(), ActivityApi::kRuntimeArenaBytes);
}

TEST(Activity, ParseRejectsCorruptBuffer) {
  std::uint8_t garbage[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
  EXPECT_THROW(ActivityApi::parse(garbage, sizeof(garbage)), glp::InternalError);
}

TEST(Activity, ParseEmptyBuffer) {
  EXPECT_TRUE(ActivityApi::parse(nullptr, 0).empty());
}

TEST(Activity, LongKernelNamesTruncateSafely) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  ActivityApi api(ctx);
  Collector col;
  col.attach(api);
  api.enable(ActivityKind::kKernel);
  const std::string long_name(200, 'x');
  ctx.device().launch_kernel(gpusim::kDefaultStream, long_name, cfg(1, 32),
                             {1e3, 1e3}, {});
  ctx.device().synchronize();
  api.flush_all();
  const auto records = col.all_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::string(records[0].kernel.name).size(), 63u);
}

TEST(Activity, DetachRestoresDeviceCallbacks) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  {
    ActivityApi api(ctx);
    Collector col;
    col.attach(api);
    api.enable(ActivityKind::kKernel);
  }
  // After destruction the device must accept launches without callbacks.
  ctx.device().launch_kernel(gpusim::kDefaultStream, "k", cfg(1, 32), {1e3, 1e3}, {});
  EXPECT_NO_THROW(ctx.device().synchronize());
}

}  // namespace
