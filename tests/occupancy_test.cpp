#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

#include "common/rng.hpp"
#include "gpusim/occupancy.hpp"
#include "test_helpers.hpp"

namespace {

using gpusim::DeviceProps;
using gpusim::DeviceTable;
using gpusim::LaunchConfig;
using gpusim::pack_residency;
using gpusim::ResidencyRequest;
using gpusim::ResidencySlot;

LaunchConfig cfg(unsigned blocks, unsigned threads, std::size_t smem = 0,
                 int regs = 32) {
  LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  c.smem_static_bytes = smem;
  c.regs_per_thread = regs;
  return c;
}

// --- single-kernel limits (Eqs. 4, 5, β_max) ------------------------------------

TEST(MaxBlocksPerSm, ThreadLimited) {
  const DeviceProps d = DeviceTable::p100();  // τ_max 2048
  EXPECT_EQ(gpusim::max_blocks_per_sm_single(d, cfg(100, 512)), 4);
  EXPECT_EQ(gpusim::max_blocks_per_sm_single(d, cfg(100, 1024)), 2);
}

TEST(MaxBlocksPerSm, BlockCountLimited) {
  const DeviceProps d = DeviceTable::p100();  // β_max 32
  EXPECT_EQ(gpusim::max_blocks_per_sm_single(d, cfg(100, 32)), 32);
}

TEST(MaxBlocksPerSm, SharedMemoryLimited) {
  const DeviceProps d = DeviceTable::p100();  // 64 KiB per SM
  EXPECT_EQ(gpusim::max_blocks_per_sm_single(d, cfg(100, 64, 16 * 1024)), 4);
  EXPECT_EQ(gpusim::max_blocks_per_sm_single(d, cfg(100, 64, 65 * 1024)), 0);
}

TEST(MaxBlocksPerSm, KeplerHasSmallerBlockLimit) {
  const DeviceProps d = DeviceTable::k40c();  // β_max 16
  EXPECT_EQ(gpusim::max_blocks_per_sm_single(d, cfg(100, 32)), 16);
}

TEST(SingleKernelOccupancy, FullWithLargeBlocks) {
  const DeviceProps d = DeviceTable::p100();
  EXPECT_NEAR(gpusim::single_kernel_occupancy(d, cfg(1000, 1024)), 1.0, 1e-9);
}

TEST(SingleKernelOccupancy, LimitedBySmem) {
  const DeviceProps d = DeviceTable::p100();
  // One 256-thread block per SM (smem) → 256/2048 = 0.125 occupancy.
  EXPECT_NEAR(gpusim::single_kernel_occupancy(d, cfg(1000, 256, 48 * 1024)),
              0.125, 1e-9);
}

// --- multi-kernel packing -------------------------------------------------------

TEST(PackResidency, SingleSmallKernelGetsOneBlockPerSm) {
  const DeviceProps d = DeviceTable::p100();  // 56 SMs
  const auto slots = pack_residency(d, {{cfg(3, 256), 3}});
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].blocks_per_sm, 1);
  EXPECT_EQ(slots[0].resident_blocks, 3u);  // capped by demand
}

TEST(PackResidency, LargeKernelSaturatesThreads) {
  const DeviceProps d = DeviceTable::p100();
  // 1024-thread blocks: 2 per SM → 112 resident.
  const auto slots = pack_residency(d, {{cfg(10000, 1024), 10000}});
  EXPECT_EQ(slots[0].blocks_per_sm, 2);
  EXPECT_EQ(slots[0].resident_blocks, 112u);
}

TEST(PackResidency, EarlierKernelHasPriority) {
  const DeviceProps d = DeviceTable::p100();
  // First kernel takes the whole thread budget; second gets nothing.
  const auto slots = pack_residency(
      d, {{cfg(10000, 1024), 10000}, {cfg(10000, 1024), 10000}});
  EXPECT_EQ(slots[0].blocks_per_sm, 2);
  EXPECT_EQ(slots[1].blocks_per_sm, 0);
}

TEST(PackResidency, SmallKernelsShareAnSm) {
  const DeviceProps d = DeviceTable::p100();
  const auto slots =
      pack_residency(d, {{cfg(56, 256), 56}, {cfg(56, 256), 56}});
  EXPECT_EQ(slots[0].resident_blocks, 56u);
  EXPECT_EQ(slots[1].resident_blocks, 56u);
}

TEST(PackResidency, ZeroWantedBlocksYieldsZero) {
  const DeviceProps d = DeviceTable::p100();
  const auto slots = pack_residency(d, {{cfg(10, 256), 0}});
  EXPECT_EQ(slots[0].resident_blocks, 0u);
}

// Property: no packing ever exceeds the per-SM hard budgets (Eqs. 4–5).
class PackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackProperty, HardConstraintsHold) {
  glp::Rng rng(GetParam());
  const auto devices = DeviceTable::all();
  const DeviceProps& d =
      devices[rng.next_below(devices.size())];

  std::vector<ResidencyRequest> reqs;
  const int n = 1 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < n; ++i) {
    const unsigned threads = 32u << rng.next_below(6);       // 32..1024
    const unsigned blocks = 1 + static_cast<unsigned>(rng.next_below(4000));
    const std::size_t smem =
        rng.next_below(3) == 0 ? (1u << (8 + rng.next_below(6))) : 0;  // ≤16K
    ResidencyRequest r;
    r.config = cfg(blocks, threads, smem);
    r.blocks_wanted = rng.next_below(blocks + 1);
    reqs.push_back(r);
  }

  const auto slots = pack_residency(d, reqs);
  ASSERT_EQ(slots.size(), reqs.size());

  double threads_used = 0, smem_used = 0, blocks_used = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_LE(slots[i].resident_blocks, reqs[i].blocks_wanted);
    const double avg_per_sm =
        static_cast<double>(slots[i].resident_blocks) / d.sm_count;
    threads_used += avg_per_sm * static_cast<double>(reqs[i].config.threads_per_block());
    smem_used += avg_per_sm * static_cast<double>(reqs[i].config.smem_per_block());
    blocks_used += avg_per_sm;
  }
  EXPECT_LE(threads_used, d.max_threads_per_sm + 1e-6);
  EXPECT_LE(smem_used, static_cast<double>(d.shared_mem_per_sm) + 1e-6);
  EXPECT_LE(blocks_used, d.max_blocks_per_sm + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, PackProperty,
                         ::testing::Range<std::uint64_t>(0, 50));

// The packer and register model as first written, with std::ceil: the
// integer ceilings that replaced it must reproduce them bit for bit.
std::vector<ResidencySlot> ceil_pack(const DeviceProps& dev,
                                     const std::vector<ResidencyRequest>& reqs) {
  std::vector<ResidencySlot> out(reqs.size());
  std::int64_t threads_left = dev.max_threads_per_sm;
  std::int64_t smem_left = static_cast<std::int64_t>(dev.shared_mem_per_sm);
  std::int64_t blocks_left = dev.max_blocks_per_sm;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ResidencyRequest& r = reqs[i];
    if (r.blocks_wanted == 0) continue;
    const std::int64_t threads = static_cast<std::int64_t>(r.config.threads_per_block());
    const std::int64_t smem = static_cast<std::int64_t>(r.config.smem_per_block());
    const std::int64_t want_per_sm = static_cast<std::int64_t>(
        (r.blocks_wanted + dev.sm_count - 1) / dev.sm_count);
    std::int64_t fit = std::min<std::int64_t>(want_per_sm, blocks_left);
    if (threads > 0) fit = std::min(fit, threads_left / threads);
    if (smem > 0) fit = std::min(fit, smem_left / smem);
    fit = std::max<std::int64_t>(fit, 0);
    out[i].blocks_per_sm = static_cast<int>(fit);
    out[i].resident_blocks = std::min<std::uint64_t>(
        r.blocks_wanted, static_cast<std::uint64_t>(fit) * dev.sm_count);
    const double avg_per_sm =
        static_cast<double>(out[i].resident_blocks) / dev.sm_count;
    threads_left -= static_cast<std::int64_t>(std::ceil(avg_per_sm * threads));
    smem_left -= static_cast<std::int64_t>(std::ceil(avg_per_sm * smem));
    blocks_left -= static_cast<std::int64_t>(std::ceil(avg_per_sm));
    threads_left = std::max<std::int64_t>(threads_left, 0);
    smem_left = std::max<std::int64_t>(smem_left, 0);
    blocks_left = std::max<std::int64_t>(blocks_left, 0);
  }
  return out;
}

double ceil_register_pressure(const DeviceProps& dev,
                              const std::vector<ResidencyRequest>& reqs,
                              const std::vector<ResidencySlot>& slots) {
  double regs = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const double avg_per_sm =
        static_cast<double>(slots[i].resident_blocks) / dev.sm_count;
    regs += avg_per_sm * static_cast<double>(reqs[i].config.threads_per_block()) *
            reqs[i].config.regs_per_thread;
  }
  return regs / static_cast<double>(dev.registers_per_sm);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(PackResidency, IntegerCeilingsMatchStdCeilBitForBit) {
  const std::uint64_t seed = glptest::test_seed(0x9ac4);
  GLP_SCOPED_SEED(seed);
  glp::Rng rng(seed);
  const auto devices = DeviceTable::all();
  std::size_t small_grids = 0, exhausted = 0, single_block = 0, no_smem = 0;
  std::size_t huge_wants = 0, stopped_early = 0;
  for (int set = 0; set < 100000; ++set) {
    const DeviceProps& d = devices[rng.next_below(devices.size())];
    std::vector<ResidencyRequest> reqs(1 + rng.next_below(12));
    // Power-of-two blocks divide the thread budget, so it can reach
    // exactly zero with requests still to pack.
    const bool pow2_blocks = rng.next_below(4) == 0;
    for (ResidencyRequest& r : reqs) {
      // Odd block sizes and shared-memory footprints make the per-SM
      // averages fractional, where the two ceilings could part.
      const auto threads =
          pow2_blocks ? 32u << rng.next_below(6)
                      : static_cast<unsigned>(1 + rng.next_below(1024));
      const unsigned grid =
          rng.next_below(3) == 0
              ? static_cast<unsigned>(1 + rng.next_below(d.sm_count))
              : static_cast<unsigned>(1 + rng.next_below(1u << (1 + rng.next_below(20))));
      const std::size_t smem =
          rng.next_below(2) == 0 ? 0 : 1 + rng.next_below(d.shared_mem_per_sm / 4);
      r.config = cfg(grid, threads, smem, 8 + static_cast<int>(rng.next_below(248)));
      switch (rng.next_below(5)) {
        case 0: r.blocks_wanted = 1; break;
        case 1: r.blocks_wanted = grid; break;
        // Far past any grid this corpus draws: the per-SM want must not
        // wrap in 32 bits.
        case 2: r.blocks_wanted = (std::uint64_t{1} << 31) + rng.next_below(std::uint64_t{1} << 40); break;
        default: r.blocks_wanted = rng.next_below(std::uint64_t{grid} + 1); break;
      }
      small_grids += grid < static_cast<unsigned>(d.sm_count);
      single_block += r.blocks_wanted == 1;
      no_smem += smem == 0;
      huge_wants += r.blocks_wanted >= (std::uint64_t{1} << 31);
    }
    const std::vector<ResidencySlot> want = ceil_pack(d, reqs);
    const std::vector<ResidencySlot> got = pack_residency(d, reqs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(got[i].blocks_per_sm, want[i].blocks_per_sm) << "set " << set << " kernel " << i;
      ASSERT_EQ(got[i].resident_blocks, want[i].resident_blocks) << "set " << set << " kernel " << i;
    }
    // A wanted kernel packed at zero blocks: some budget ran out before it.
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].blocks_wanted > 0 && want[i].resident_blocks == 0) {
        ++exhausted;
        break;
      }
    }
    ASSERT_TRUE(same_bits(gpusim::register_pressure(d, reqs, got),
                          ceil_register_pressure(d, reqs, want)))
        << "set " << set;
    // SimDevice's fused repack stops stepping once the budget is
    // exhausted: the packer as first written must give every request
    // past that point nothing.
    gpusim::PackBudget budget(d);
    double avg_per_sm = 0.0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (budget.exhausted()) {
        ++stopped_early;
        for (std::size_t j = i; j < reqs.size(); ++j) {
          ASSERT_EQ(want[j].resident_blocks, 0u) << "set " << set << " kernel " << j;
        }
        break;
      }
      const LaunchConfig& c = reqs[i].config;
      gpusim::pack_step(d, budget, reqs[i].blocks_wanted,
                        static_cast<std::int64_t>(c.threads_per_block()),
                        static_cast<std::int64_t>(c.smem_per_block()), avg_per_sm);
    }
  }
  // The corpus reaches every regime the ceilings touch.
  EXPECT_GT(small_grids, 10000u);
  EXPECT_GT(exhausted, 10000u);
  EXPECT_GT(single_block, 10000u);
  EXPECT_GT(no_smem, 10000u);
  EXPECT_GT(huge_wants, 10000u);
  EXPECT_GT(stopped_early, 10000u);
}

// --- register soft constraint ---------------------------------------------------

TEST(RegisterPressure, ComputedFromPacking) {
  const DeviceProps d = DeviceTable::p100();  // 64K regs per SM
  std::vector<ResidencyRequest> reqs = {{cfg(56, 1024, 0, 64), 56}};
  const auto slots = pack_residency(d, reqs);
  // 1 block/SM × 1024 threads × 64 regs = 64K = exactly full.
  EXPECT_NEAR(gpusim::register_pressure(d, reqs, slots), 1.0, 1e-9);
}

TEST(RegisterSlowdown, NoPenaltyBelowCapacity) {
  EXPECT_DOUBLE_EQ(gpusim::register_slowdown(0.5), 1.0);
  EXPECT_DOUBLE_EQ(gpusim::register_slowdown(1.0), 1.0);
}

TEST(RegisterSlowdown, HyperbolicWithFloor) {
  EXPECT_NEAR(gpusim::register_slowdown(2.0), 0.5, 1e-9);
  EXPECT_NEAR(gpusim::register_slowdown(100.0), 0.25, 1e-9);  // floored
}

TEST(Occupancy, RejectsZeroThreadBlocks) {
  const DeviceProps d = DeviceTable::p100();
  LaunchConfig bad = cfg(1, 1);
  bad.block = {0, 1, 1};
  EXPECT_THROW(gpusim::max_blocks_per_sm_single(d, bad), glp::InvalidArgument);
}

}  // namespace
