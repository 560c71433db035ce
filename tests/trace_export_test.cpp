// Tests of the Chrome-trace exporter and the dataset shuffling extension.

#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/profile_report.hpp"
#include "gpusim/trace_export.hpp"
#include "minicaffe/datasets.hpp"

namespace {

using gpusim::SimDevice;

gpusim::LaunchConfig cfg(unsigned blocks, unsigned threads) {
  gpusim::LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  return c;
}

TEST(TraceExport, EmitsOneEventPerRecord) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  const auto s = dev.create_stream();
  dev.launch_kernel(s, "my_kernel", cfg(4, 128), {1e6, 1e5}, {});
  dev.memcpy_async(gpusim::kDefaultStream, 4096, true, {});
  dev.synchronize();

  const std::string json = gpusim::to_chrome_trace(dev.timeline());
  EXPECT_NE(json.find("\"my_kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"memcpy H2D\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"regs\":32"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  // Balanced JSON array, one object per record.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.front(), '[');
}

TEST(TraceExport, EmptyTimelineIsValidJson) {
  gpusim::Timeline t;
  EXPECT_EQ(gpusim::to_chrome_trace(t), "[\n]\n");
}

TEST(TraceExport, EscapesSpecialCharacters) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  dev.launch_kernel(gpusim::kDefaultStream, "weird\"name\\here", cfg(1, 32),
                    {1e4, 1e3}, {});
  dev.synchronize();
  const std::string json = gpusim::to_chrome_trace(dev.timeline());
  EXPECT_NE(json.find("weird\\\"name\\\\here"), std::string::npos);
}

TEST(TraceExport, WritesFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "glp4nn_trace_test.json").string();
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  dev.launch_kernel(gpusim::kDefaultStream, "k", cfg(1, 32), {1e4, 1e3}, {});
  dev.synchronize();
  gpusim::write_chrome_trace(dev.timeline(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"k\""), std::string::npos);
  std::filesystem::remove(path);
  EXPECT_THROW(gpusim::write_chrome_trace(dev.timeline(), "/nonexistent/x.json"),
               glp::InvalidArgument);
}

// --- profile report ----------------------------------------------------------------

TEST(ProfileReport, AggregatesByKernelName) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    dev.launch_kernel(gpusim::kDefaultStream, "alpha", cfg(8, 256), {1e7, 1e6}, {});
  }
  dev.launch_kernel(gpusim::kDefaultStream, "beta", cfg(8, 256), {5e7, 5e6}, {});
  dev.synchronize();

  const auto summaries = gpusim::summarize_kernels(dev.timeline());
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].name, "beta");  // sorted by total time
  EXPECT_EQ(summaries[1].name, "alpha");
  EXPECT_EQ(summaries[1].calls, 3);
  EXPECT_LE(summaries[1].min_us, summaries[1].avg_us());
  EXPECT_LE(summaries[1].avg_us(), summaries[1].max_us);
  EXPECT_NEAR(summaries[1].total_us, 3 * summaries[1].avg_us(), 1e-9);

  const std::string report = gpusim::profile_report(dev.timeline());
  EXPECT_NE(report.find("beta"), std::string::npos);
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("4 launches"), std::string::npos);
}

TEST(ProfileReport, TopLimitsRows) {
  SimDevice dev(gpusim::DeviceTable::p100());
  dev.timeline().set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    dev.launch_kernel(gpusim::kDefaultStream,
                      std::string("k").append(std::to_string(i)), cfg(4, 128),
                      {1e6 * (i + 1), 1e5}, {});
  }
  dev.synchronize();
  const std::string report = gpusim::profile_report(dev.timeline(), 2);
  EXPECT_NE(report.find("k4"), std::string::npos);   // biggest two kept
  EXPECT_NE(report.find("k3"), std::string::npos);
  EXPECT_EQ(report.find("k0"), std::string::npos);
}

TEST(ProfileReport, EmptyTimeline) {
  gpusim::Timeline t;
  EXPECT_TRUE(gpusim::summarize_kernels(t).empty());
  EXPECT_NE(gpusim::profile_report(t).find("0 launches"), std::string::npos);
}

// --- dataset shuffling -----------------------------------------------------------

TEST(Shuffle, IdentityWhenDisabled) {
  mc::SyntheticDataset d(mc::DatasetSpec::mnist(), 1);
  for (std::uint64_t p : {0ull, 5ull, 59999ull, 60000ull, 60007ull}) {
    EXPECT_EQ(d.index_at(p), p % 60000ull);
  }
}

TEST(Shuffle, PermutesEveryEpochPosition) {
  mc::DatasetSpec spec = mc::DatasetSpec::mnist();
  spec.train_size = 257;
  spec.shuffle = true;
  mc::SyntheticDataset d(spec, 42);
  std::set<std::uint64_t> seen;
  for (std::uint64_t p = 0; p < 257; ++p) {
    const std::uint64_t idx = d.index_at(p);
    EXPECT_LT(idx, 257u);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 257u) << "epoch must be a permutation";
}

TEST(Shuffle, DifferentEpochsDifferentOrder) {
  mc::DatasetSpec spec = mc::DatasetSpec::mnist();
  spec.train_size = 100;
  spec.shuffle = true;
  mc::SyntheticDataset d(spec, 7);
  int moved = 0;
  for (std::uint64_t p = 0; p < 100; ++p) {
    if (d.index_at(p) != d.index_at(p + 100)) ++moved;
  }
  EXPECT_GT(moved, 50);
}

TEST(Shuffle, DeterministicAcrossInstances) {
  mc::DatasetSpec spec = mc::DatasetSpec::cifar10();
  spec.shuffle = true;
  mc::SyntheticDataset a(spec, 9), b(spec, 9);
  for (std::uint64_t p = 0; p < 500; ++p) {
    EXPECT_EQ(a.index_at(p), b.index_at(p));
  }
}

TEST(Shuffle, EvenSizesStillPermute) {
  mc::DatasetSpec spec = mc::DatasetSpec::mnist();
  spec.train_size = 256;  // highly composite
  spec.shuffle = true;
  mc::SyntheticDataset d(spec, 3);
  std::set<std::uint64_t> seen;
  for (std::uint64_t p = 0; p < 256; ++p) seen.insert(d.index_at(p));
  EXPECT_EQ(seen.size(), 256u);
}

}  // namespace
