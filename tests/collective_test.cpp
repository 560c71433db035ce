// Collective engine suite: every algorithm's scheduled execution must be
// bit-identical to its host oracle (the shared wave program replayed by
// reference_collective_allreduce), across device counts, non-divisible
// and degenerate element counts, fp16 wire, pipelining, and faulted
// comm-lane creation. Plus the cost model's selection behaviour, the
// fp16 loss-trajectory tolerance contract, and the pipelining win the
// BENCH_fleet floors quantify.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/wire.hpp"
#include "gpusim/device_props.hpp"
#include "gpusim/trace_export.hpp"
#include "simcuda/fleet.hpp"
#include "testing/differential.hpp"
#include "testing/race_checker.hpp"

namespace {

using comm::CollectiveAlgo;
using comm::CollectiveChoice;
using comm::CollectiveCostModel;
using comm::CollectiveOptions;
using comm::CollectiveProgram;
using comm::WireFormat;
using gpusim::LinkTopology;

scuda::FleetOptions fleet_options(LinkTopology topo) {
  scuda::FleetOptions f;
  f.topology = topo;
  f.link = topo == LinkTopology::kNvlinkRing ? gpusim::LinkProps::nvlink()
                                             : gpusim::LinkProps::pcie();
  return f;
}

/// Deterministic, device- and index-dependent values with exact binary
/// representations (multiples of 1/8 in [-125, 125]) so fp32 chains stay
/// interesting without drifting into rounding noise.
float fill_value(int d, std::size_t k) {
  const std::uint32_t h = (static_cast<std::uint32_t>(d + 1) * 2654435761u) ^
                          (static_cast<std::uint32_t>(k) * 40503u + 0x9e37u);
  return static_cast<float>(static_cast<int>(h % 2001) - 1000) * 0.125f;
}

bool same_bits(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

/// Run one scheduled reduce and require bit-equality with the oracle
/// replay of the engine's own program, a clean link-contract audit, and
/// no zero-byte transfers.
void check_reduce_bit_exact(scuda::Fleet& fleet, comm::CollectiveEngine& engine,
                            std::size_t count) {
  const int n = fleet.size();
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::vector<float>> mine(nn, std::vector<float>(count));
  std::vector<std::vector<float>> want(nn, std::vector<float>(count));
  std::vector<float*> ptrs(nn), optrs(nn);
  for (std::size_t d = 0; d < nn; ++d) {
    for (std::size_t k = 0; k < count; ++k) {
      mine[d][k] = want[d][k] = fill_value(static_cast<int>(d), k);
    }
    ptrs[d] = mine[d].data();
    optrs[d] = want[d].data();
  }

  const std::vector<gpusim::SimTime> ready(nn, 0.0);
  const std::vector<gpusim::EventId> done =
      engine.reduce(ptrs, count, ready, /*numeric=*/true);
  ASSERT_EQ(done.size(), nn);
  fleet.synchronize_all();

  comm::reference_collective_allreduce(engine.program_for(count), optrs, count,
                                       engine.options().wire);
  for (std::size_t d = 0; d < nn; ++d) {
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_TRUE(same_bits(mine[d][k], want[d][k]))
          << comm::to_string(engine.algo_for(count)) << " n=" << n
          << " count=" << count << " device " << d << " elem " << k << ": got "
          << mine[d][k] << " want " << want[d][k];
    }
  }

  for (const gpusim::TransferRecord& r : engine.transfers()) {
    EXPECT_GT(r.bytes, 0u) << "zero-byte transfer " << r.id;
  }
  const glpfuzz::FleetTransferReport report =
      glpfuzz::check_fleet_transfers(engine.transfers(), fleet.links().props());
  EXPECT_TRUE(report.clean()) << report.to_string();
}

void expect_scheduled_matches_oracle(int n, LinkTopology topo,
                                     const CollectiveOptions& copts,
                                     std::size_t count) {
  scuda::Fleet fleet = scuda::Fleet::homogeneous(
      n, gpusim::DeviceTable::p100(), fleet_options(topo));
  comm::CollectiveEngine engine(fleet, copts);
  check_reduce_bit_exact(fleet, engine, count);
}

CollectiveOptions forced(CollectiveChoice c, WireFormat w = WireFormat::kFp32) {
  CollectiveOptions o;
  o.collective = c;
  o.wire = w;
  return o;
}

TEST(CollectiveOracle, RingScheduledBitExactAcrossCounts) {
  for (const int n : {2, 3, 4, 8}) {
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{1000}}) {
      expect_scheduled_matches_oracle(n, LinkTopology::kNvlinkRing,
                                      forced(CollectiveChoice::kRing), count);
    }
  }
}

TEST(CollectiveOracle, TreeScheduledBitExactAcrossCounts) {
  for (const int n : {2, 3, 4, 8}) {
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{1000}}) {
      expect_scheduled_matches_oracle(n, LinkTopology::kPcieHost,
                                      forced(CollectiveChoice::kTree), count);
    }
  }
}

TEST(CollectiveOracle, HierScheduledBitExactAcrossCounts) {
  for (const int n : {4, 6, 8, 9}) {
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{5}, std::size_t{1000}}) {
      expect_scheduled_matches_oracle(n, LinkTopology::kPcieHost,
                                      forced(CollectiveChoice::kHier), count);
    }
  }
}

TEST(CollectiveOracle, PipelinedProgramsStayBitExact) {
  // 64-byte pieces split a 100-element bucket into many overlapping
  // sub-programs; the oracle replays the identical merged program.
  for (const CollectiveChoice c : {CollectiveChoice::kRing,
                                   CollectiveChoice::kTree,
                                   CollectiveChoice::kHier}) {
    CollectiveOptions o = forced(c);
    o.pipeline_chunk_bytes = 64;
    expect_scheduled_matches_oracle(4, LinkTopology::kPcieHost, o, 100);
  }
}

TEST(CollectiveOracle, CountSmallerThanDevicesHasNoEmptySegments) {
  // 3 elements across 8 devices: most ring segments are empty and must
  // simply not be emitted, not sent as zero-byte messages.
  expect_scheduled_matches_oracle(8, LinkTopology::kNvlinkRing,
                                  forced(CollectiveChoice::kRing), 3);
  expect_scheduled_matches_oracle(8, LinkTopology::kPcieHost,
                                  forced(CollectiveChoice::kHier), 3);
}

TEST(CollectiveOracle, Fp16WireBitExactAgainstFp16Oracle) {
  for (const CollectiveChoice c : {CollectiveChoice::kRing,
                                   CollectiveChoice::kTree,
                                   CollectiveChoice::kHier}) {
    expect_scheduled_matches_oracle(4, LinkTopology::kPcieHost,
                                    forced(c, WireFormat::kFp16), 1000);
  }
  expect_scheduled_matches_oracle(3, LinkTopology::kNvlinkRing,
                                  forced(CollectiveChoice::kRing,
                                         WireFormat::kFp16),
                                  257);
}

TEST(CollectiveEngine, ZeroCountBucketIssuesNoTransfers) {
  scuda::Fleet fleet = scuda::Fleet::homogeneous(
      4, gpusim::DeviceTable::p100(), fleet_options(LinkTopology::kNvlinkRing));
  comm::CollectiveEngine engine(fleet, {});
  std::vector<float*> ptrs(4, nullptr);
  const std::vector<gpusim::SimTime> ready(4, 0.0);
  const auto done = engine.reduce(ptrs, 0, ready, /*numeric=*/true);
  EXPECT_EQ(done.size(), 4u);
  fleet.synchronize_all();
  EXPECT_TRUE(engine.transfers().empty());
}

TEST(CollectiveEngine, SingleDeviceFleetIsIdle) {
  scuda::Fleet fleet =
      scuda::Fleet::homogeneous(1, gpusim::DeviceTable::p100(), {});
  comm::CollectiveEngine engine(fleet, {});
  std::vector<float> grad(64);
  for (std::size_t k = 0; k < grad.size(); ++k) grad[k] = fill_value(0, k);
  const std::vector<float> before = grad;
  std::vector<float*> ptrs{grad.data()};
  const auto done =
      engine.reduce(ptrs, grad.size(), {0.0}, /*numeric=*/true);
  EXPECT_EQ(done.size(), 1u);
  fleet.synchronize_all();
  EXPECT_TRUE(engine.transfers().empty());
  for (std::size_t k = 0; k < grad.size(); ++k) {
    EXPECT_TRUE(same_bits(grad[k], before[k])) << k;
  }
}

TEST(CollectiveEngine, FaultedLaneCreationFallsBackPerAlgorithm) {
  for (const CollectiveChoice c : {CollectiveChoice::kRing,
                                   CollectiveChoice::kTree,
                                   CollectiveChoice::kHier}) {
    scuda::Fleet fleet = scuda::Fleet::homogeneous(
        4, gpusim::DeviceTable::p100(), fleet_options(LinkTopology::kPcieHost));
    scuda::FaultConfig faults;
    faults.stream_create_failure_rate = 1.0;
    faults.seed = 7;
    fleet.device(1).faults().arm(faults);
    comm::CollectiveEngine engine(fleet, forced(c));
    fleet.device(1).faults().arm({});  // creation-time faults only
    EXPECT_TRUE(engine.fallback(1)) << comm::to_string(c);
    EXPECT_FALSE(engine.fallback(0));
    check_reduce_bit_exact(fleet, engine, 321);
  }
}

TEST(CollectiveCostModel, FeasibilityFollowsTopology) {
  EXPECT_TRUE(CollectiveCostModel::feasible(CollectiveAlgo::kRing, 4,
                                            LinkTopology::kNvlinkRing));
  EXPECT_FALSE(CollectiveCostModel::feasible(CollectiveAlgo::kTree, 4,
                                             LinkTopology::kNvlinkRing));
  EXPECT_FALSE(CollectiveCostModel::feasible(CollectiveAlgo::kHier, 8,
                                             LinkTopology::kNvlinkRing));
  EXPECT_TRUE(CollectiveCostModel::feasible(CollectiveAlgo::kTree, 4,
                                            LinkTopology::kPcieHost));
  EXPECT_TRUE(CollectiveCostModel::feasible(CollectiveAlgo::kHier, 8,
                                            LinkTopology::kPcieHost));
  // hier needs a composite count >= 4.
  EXPECT_FALSE(CollectiveCostModel::feasible(CollectiveAlgo::kHier, 5,
                                             LinkTopology::kPcieHost));
  EXPECT_FALSE(CollectiveCostModel::feasible(CollectiveAlgo::kHier, 2,
                                             LinkTopology::kPcieHost));

  EXPECT_EQ(CollectiveCostModel::hier_group(4), 2);
  EXPECT_EQ(CollectiveCostModel::hier_group(6), 2);
  EXPECT_EQ(CollectiveCostModel::hier_group(8), 2);
  EXPECT_EQ(CollectiveCostModel::hier_group(9), 3);
  EXPECT_EQ(CollectiveCostModel::hier_group(15), 3);
  EXPECT_EQ(CollectiveCostModel::hier_group(5), 0);
  EXPECT_EQ(CollectiveCostModel::hier_group(7), 0);
  EXPECT_EQ(CollectiveCostModel::hier_group(3), 0);
}

TEST(CollectiveCostModel, TreeBeatsRingOnSharedPcieChannel) {
  const CollectiveCostModel cost{4, LinkTopology::kPcieHost,
                                 gpusim::LinkProps::pcie()};
  const std::size_t count = 64 * 1024;
  EXPECT_LT(cost.predict_ns(CollectiveAlgo::kTree, count, WireFormat::kFp32),
            cost.predict_ns(CollectiveAlgo::kRing, count, WireFormat::kFp32));
  EXPECT_EQ(cost.choose(count, WireFormat::kFp32), CollectiveAlgo::kTree);

  const CollectiveCostModel cost8{8, LinkTopology::kPcieHost,
                                  gpusim::LinkProps::pcie()};
  EXPECT_LT(cost8.predict_ns(CollectiveAlgo::kHier, count, WireFormat::kFp32),
            cost8.predict_ns(CollectiveAlgo::kRing, count, WireFormat::kFp32));
}

TEST(CollectiveCostModel, AutoPicksRingOnNvlink) {
  scuda::Fleet fleet = scuda::Fleet::homogeneous(
      4, gpusim::DeviceTable::p100(), fleet_options(LinkTopology::kNvlinkRing));
  comm::CollectiveEngine engine(fleet, {});  // kAuto
  EXPECT_EQ(engine.algo_for(4096), CollectiveAlgo::kRing);

  scuda::Fleet pfleet = scuda::Fleet::homogeneous(
      4, gpusim::DeviceTable::p100(), fleet_options(LinkTopology::kPcieHost));
  comm::CollectiveEngine pengine(pfleet, {});
  EXPECT_NE(pengine.algo_for(4096), CollectiveAlgo::kRing);
}

TEST(CollectiveCostModel, InfeasibleExplicitChoiceDegradesToBestFeasible) {
  // tree forced on the NVLink ring: no non-neighbour channels, so the
  // plan degrades to the cost model's pick instead of CHECK-failing.
  scuda::Fleet fleet = scuda::Fleet::homogeneous(
      4, gpusim::DeviceTable::p100(), fleet_options(LinkTopology::kNvlinkRing));
  comm::CollectiveEngine engine(fleet, forced(CollectiveChoice::kTree));
  EXPECT_EQ(engine.algo_for(4096), CollectiveAlgo::kRing);
  // hier forced on a prime PCIe fleet: same degradation.
  scuda::Fleet p5 = scuda::Fleet::homogeneous(
      5, gpusim::DeviceTable::p100(), fleet_options(LinkTopology::kPcieHost));
  comm::CollectiveEngine e5(p5, forced(CollectiveChoice::kHier));
  EXPECT_NE(e5.algo_for(4096), CollectiveAlgo::kHier);
}

TEST(CollectiveOracle, SumOfOnesCoversEveryElementExactly) {
  // All-ones all-reduce must leave exactly n everywhere — a full
  // coverage check over non-divisible and tiny counts for every
  // algorithm and rank count.
  for (const CollectiveAlgo algo : {CollectiveAlgo::kRing,
                                    CollectiveAlgo::kTree,
                                    CollectiveAlgo::kHier}) {
    for (int n = 2; n <= 9; ++n) {
      if (algo == CollectiveAlgo::kHier &&
          CollectiveCostModel::hier_group(n) == 0) {
        continue;
      }
      for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                      std::size_t{5}, std::size_t{97}}) {
        const CollectiveProgram prog =
            comm::build_collective_program(algo, n, count);
        std::vector<std::vector<float>> grads(
            static_cast<std::size_t>(n), std::vector<float>(count, 1.0f));
        std::vector<float*> ptrs;
        for (auto& g : grads) ptrs.push_back(g.data());
        comm::reference_collective_allreduce(prog, ptrs, count,
                                             WireFormat::kFp32);
        for (int d = 0; d < n; ++d) {
          for (std::size_t k = 0; k < count; ++k) {
            ASSERT_EQ(grads[static_cast<std::size_t>(d)][k],
                      static_cast<float>(n))
                << comm::to_string(algo) << " n=" << n << " count=" << count
                << " d=" << d << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(Fp16Wire, RoundTripIsIdempotent) {
  const float samples[] = {0.0f,     -0.0f,   1.0f,      -2.5f,
                           3.14159f, 65504.f, 1.0e-5f,   -7.77e-4f,
                           123.456f, 1.0e8f,  -1.0e-30f, 0.333333f};
  for (const float x : samples) {
    const float q = comm::quantize_fp16(x);
    EXPECT_TRUE(same_bits(comm::quantize_fp16(q), q)) << x;
    EXPECT_TRUE(
        same_bits(comm::float16_to_float32(comm::float32_to_float16(q)), q))
        << x;
  }
}

TEST(Fp16Wire, LossTrajectoryStaysWithinTolerance) {
  // The fp16 convergence contract: same fleet case trained with fp32 and
  // fp16 wire formats stays on essentially the same loss trajectory.
  // Each run is independently validated bit-exact against its own wire
  // format's oracle by the fleet differential.
  const glpfuzz::FuzzCase c = glpfuzz::make_fleet_case(11);
  glpfuzz::DiffOptions fp32_opts;
  fp32_opts.scenario = glpfuzz::Scenario::kFleet;
  fp32_opts.devices = 4;
  fp32_opts.topology = LinkTopology::kPcieHost;
  glpfuzz::DiffOptions fp16_opts = fp32_opts;
  fp16_opts.collective.wire = WireFormat::kFp16;

  const glpfuzz::DiffResult a = glpfuzz::run_differential(c, fp32_opts);
  const glpfuzz::DiffResult b = glpfuzz::run_differential(c, fp16_opts);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  ASSERT_EQ(a.losses.size(), b.losses.size());
  ASSERT_FALSE(a.losses.empty());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    const float fa = a.losses[i], fb = b.losses[i];
    EXPECT_LE(std::abs(fa - fb), 0.05f * std::max(1.0f, std::abs(fa)))
        << "iteration " << i << ": fp32 " << fa << " vs fp16 " << fb;
  }
}

TEST(CollectivePipelining, ChunkPipelineBeatsWholeBucketOnNvlink) {
  // Same bucket, same ring program shape; the pipelined run overlaps
  // wave k+1 of piece j with wave k of piece j+1 and must finish the
  // reduction strictly earlier in simulated time.
  const std::size_t count = std::size_t{1} << 20;  // 4 MiB of fp32
  auto makespan = [&](std::size_t pipeline_chunk_bytes) {
    scuda::Fleet fleet = scuda::Fleet::homogeneous(
        4, gpusim::DeviceTable::p100(),
        fleet_options(LinkTopology::kNvlinkRing));
    CollectiveOptions o = forced(CollectiveChoice::kRing);
    o.pipeline_chunk_bytes = pipeline_chunk_bytes;
    comm::CollectiveEngine engine(fleet, o);
    std::vector<float*> ptrs(4, nullptr);
    const std::vector<gpusim::SimTime> ready(4, 0.0);
    engine.reduce(ptrs, count, ready, /*numeric=*/false);
    fleet.synchronize_all();
    return fleet.max_device_now();
  };
  const double pipelined = makespan(256 << 10);
  const double whole = makespan(0);
  EXPECT_LT(pipelined, whole);
}

TEST(FleetTrace, MergedChromeTraceHasPerDeviceRowsAndPeerSpans) {
  scuda::Fleet fleet = scuda::Fleet::homogeneous(
      2, gpusim::DeviceTable::p100(), fleet_options(LinkTopology::kNvlinkRing));
  for (int d = 0; d < 2; ++d) {
    fleet.device(d).device().timeline().set_enabled(true);
  }
  comm::CollectiveEngine engine(fleet, forced(CollectiveChoice::kRing));
  std::vector<std::vector<float>> grads(2, std::vector<float>(256, 1.0f));
  std::vector<float*> ptrs{grads[0].data(), grads[1].data()};
  engine.reduce(ptrs, 256, {0.0, 0.0}, /*numeric=*/true);
  fleet.synchronize_all();

  const std::string trace = gpusim::to_chrome_trace_fleet(
      {&fleet.device(0).device().timeline(), &fleet.device(1).device().timeline()},
      {"device 0 (P100)", "device 1 (P100)"});
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("device 1 (P100)"), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(trace.find("memcpy peer->"), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"memcpy_peer\""), std::string::npos);
}

}  // namespace
