// Fleet tests: the interconnect model's exact processor-sharing
// contention (halving on a shared PCIe channel, non-interference of
// disjoint NVLink links), the transfer race-checker (clean audits and
// synthetic capacity/conservation/profile violations), the engine
// semantics the fleet drivers lean on (non-blocking streams escaping the
// default-stream barrier, comm-driver events releasing at their issue
// time — identically on both engines), multi-device data-parallel
// training held bit-identical to the single-device reference (both
// engines, both link kinds, with and without overlap, clean and under
// injected faults), timing-only replicas holding no host numerics, and
// replica-group routing in the sharded fleet server (placement
// containment, determinism, health-aware failover).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "comm/data_parallel.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/interconnect.hpp"
#include "minicaffe/layers/data_layer.hpp"
#include "minicaffe/models.hpp"
#include "serving/fleet_server.hpp"
#include "serving/model_zoo.hpp"
#include "serving/trace_gen.hpp"
#include "simcuda/fleet.hpp"
#include "test_helpers.hpp"
#include "testing/differential.hpp"
#include "testing/race_checker.hpp"

namespace {

using gpusim::kDefaultStream;
using gpusim::LinkModel;
using gpusim::LinkProps;
using gpusim::LinkTopology;
using gpusim::SimTime;
using gpusim::TransferRecord;

gpusim::LaunchConfig cfg(unsigned blocks, unsigned threads) {
  gpusim::LaunchConfig c;
  c.grid = {blocks, 1, 1};
  c.block = {threads, 1, 1};
  return c;
}

gpusim::KernelCost flops(double f) { return gpusim::KernelCost{f, f}; }

// --- interconnect model ----------------------------------------------------

TEST(LinkModel, SoloTransferRunsAtFullBandwidth) {
  LinkModel links(2, LinkTopology::kPcieHost, LinkProps::pcie());
  links.begin(0, 1, 120000, 0.0);
  links.finalize_all();
  const auto recs = links.take_completed();
  ASSERT_EQ(recs.size(), 1u);
  // 5 us latency, then 120000 B at 12 B/ns.
  EXPECT_DOUBLE_EQ(recs[0].start_ns, 5000.0);
  EXPECT_DOUBLE_EQ(recs[0].end_ns, 15000.0);
  ASSERT_EQ(recs[0].segments.size(), 1u);
  EXPECT_DOUBLE_EQ(recs[0].segments[0].rate, 12.0);
}

TEST(LinkModel, ConcurrentTransfersOnSharedPcieChannelHalveExactly) {
  LinkModel links(4, LinkTopology::kPcieHost, LinkProps::pcie());
  EXPECT_EQ(links.channel_count(), 1);
  EXPECT_EQ(links.channel_for(0, 1), links.channel_for(2, 3));
  links.begin(0, 1, 120000, 0.0);
  links.begin(2, 3, 120000, 0.0);
  links.finalize_all();
  const auto recs = links.take_completed();
  ASSERT_EQ(recs.size(), 2u);
  for (const TransferRecord& r : recs) {
    // Both share the one host channel for their whole lifetime, so each
    // progresses at exactly B/2 = 6 bytes/ns: end = 5000 + 120000/6.
    EXPECT_DOUBLE_EQ(r.start_ns, 5000.0);
    EXPECT_DOUBLE_EQ(r.end_ns, 25000.0);
    ASSERT_EQ(r.segments.size(), 1u);
    EXPECT_DOUBLE_EQ(r.segments[0].rate, 6.0);
  }
}

TEST(LinkModel, DisjointNvlinkLinksDoNotInterfere) {
  LinkModel links(4, LinkTopology::kNvlinkRing, LinkProps::nvlink());
  EXPECT_NE(links.channel_for(0, 1), links.channel_for(2, 3));
  EXPECT_NE(links.channel_for(0, 1), links.channel_for(1, 0));  // directed
  links.begin(0, 1, 60000, 0.0);
  links.begin(2, 3, 60000, 0.0);
  links.finalize_all();
  const auto recs = links.take_completed();
  ASSERT_EQ(recs.size(), 2u);
  for (const TransferRecord& r : recs) {
    // Dedicated directed link: full 60 B/ns as if alone.
    EXPECT_DOUBLE_EQ(r.start_ns, 1000.0);
    EXPECT_DOUBLE_EQ(r.end_ns, 2000.0);
  }
}

TEST(LinkModel, SameNvlinkLinkQueuesFifo) {
  LinkModel links(4, LinkTopology::kNvlinkRing, LinkProps::nvlink());
  links.begin(0, 1, 60000, 0.0);
  links.begin(0, 1, 60000, 0.0);
  links.finalize_all();
  const auto recs = links.take_completed();
  ASSERT_EQ(recs.size(), 2u);
  // One message in flight per directed pair: the first runs alone at
  // the full 60 B/ns; the second streams right behind it, its latency
  // hidden behind the queue wait.
  EXPECT_DOUBLE_EQ(recs[0].start_ns, 1000.0);
  EXPECT_DOUBLE_EQ(recs[0].end_ns, 2000.0);
  EXPECT_DOUBLE_EQ(recs[1].start_ns, 2000.0);
  EXPECT_DOUBLE_EQ(recs[1].end_ns, 3000.0);
}

TEST(LinkModel, FinalizesOnLargeClock) {
  // At 2^32 ns one ulp of the clock is ~1e-6 ns, so a remainder just
  // above the byte tolerance finishes within an ulp of `now`. Such a
  // transfer must still retire instead of stalling finalize_all.
  for (const LinkTopology topology :
       {LinkTopology::kPcieHost, LinkTopology::kNvlinkRing}) {
    const LinkProps props = topology == LinkTopology::kPcieHost
                                ? LinkProps::pcie()
                                : LinkProps::nvlink();
    LinkModel links(4, topology, props);
    SimTime t = 4294967296.0;  // 2^32 ns
    // Ring waves of odd-sized transfers, each wave requested when the
    // previous one has landed.
    for (int wave = 0; wave < 20; ++wave) {
      for (int src = 0; src < 4; ++src) {
        const auto k = static_cast<std::size_t>(wave * 4 + src);
        links.begin(src, (src + 1) % 4, 4097 + 7919 * k, t);
      }
      links.finalize_all();
      const auto recs = links.take_completed();
      ASSERT_EQ(recs.size(), 4u);
      const auto report = glpfuzz::check_fleet_transfers(recs, props);
      EXPECT_TRUE(report.clean()) << report.to_string();
      for (const TransferRecord& r : recs) t = std::max(t, r.end_ns);
    }
  }
}

// --- transfer race checker -------------------------------------------------

TEST(FleetTransfers, CleanAuditOfContendedModelOutput) {
  LinkModel links(4, LinkTopology::kPcieHost, LinkProps::pcie());
  // Staggered arrivals so the PS profiles have several rate segments.
  links.begin(0, 1, 120000, 0.0);
  links.begin(1, 2, 60000, 2000.0);
  links.begin(2, 3, 30000, 9000.0);
  links.finalize_all();
  const auto report =
      glpfuzz::check_fleet_transfers(links.take_completed(), LinkProps::pcie());
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.transfers_checked, 3u);
  EXPECT_LE(report.peak_channel_rate, LinkProps::pcie().bandwidth_gbps + 1e-9);
  EXPECT_EQ(report.channels_used, 1u);
}

TEST(FleetTransfers, FlagsCapacityAndConservationViolations) {
  TransferRecord bad;
  bad.id = 1;
  bad.src = 0;
  bad.dst = 1;
  bad.bytes = 1200;
  bad.request_ns = 0.0;
  bad.start_ns = 5000.0;
  bad.end_ns = 5100.0;
  bad.channel = 0;
  // 24 B/ns on a 12 B/ns channel, and the integral (2400 B) is double
  // the declared byte count: capacity AND conservation must both fire.
  bad.segments = {{5000.0, 5100.0, 24.0}};
  const auto report = glpfuzz::check_fleet_transfers({bad}, LinkProps::pcie());
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.violations.size(), 2u);
}

TEST(FleetTransfers, FlagsGappyRateProfile) {
  TransferRecord bad;
  bad.id = 2;
  bad.src = 1;
  bad.dst = 0;
  bad.bytes = 960;
  bad.request_ns = 0.0;
  bad.start_ns = 5000.0;
  bad.end_ns = 5100.0;
  bad.channel = 0;
  // Conserves bytes but leaves [5040, 5060) uncovered — an active PS
  // transfer always holds a positive share, so gaps are malformed.
  bad.segments = {{5000.0, 5040.0, 12.0}, {5060.0, 5100.0, 12.0}};
  const auto report = glpfuzz::check_fleet_transfers({bad}, LinkProps::pcie());
  EXPECT_FALSE(report.clean());
}

TEST(FleetTransfers, FlagsProfileStoppingShortOfEnd) {
  TransferRecord bad;
  bad.id = 3;
  bad.src = 0;
  bad.dst = 1;
  bad.bytes = 480;
  bad.request_ns = 0.0;
  bad.start_ns = 5000.0;
  bad.end_ns = 5100.0;
  bad.channel = 0;
  bad.segments = {{5000.0, 5040.0, 12.0}};
  const auto report = glpfuzz::check_fleet_transfers({bad}, LinkProps::pcie());
  EXPECT_FALSE(report.clean());
}

// --- engine semantics the fleet drivers depend on --------------------------

TEST(FleetEngine, NonBlockingStreamEscapesDefaultBarrierOnBothEngines) {
  std::map<gpusim::EngineKind, std::pair<SimTime, SimTime>> times;
  for (const auto kind :
       {gpusim::EngineKind::kOptimized, gpusim::EngineKind::kReference}) {
    scuda::Context ctx(gpusim::DeviceTable::p100(), kind);
    auto& dev = ctx.device();
    // Long default-stream kernel, then one link-scheduled peer copy on a
    // non-blocking stream and one on an ordinary (blocking) stream.
    dev.launch_kernel(kDefaultStream, "busy", cfg(64, 256), flops(1e10), {});
    const auto nb = dev.create_stream(0, /*non_blocking=*/true);
    const auto bl = dev.create_stream(0, /*non_blocking=*/false);
    SimTime nb_done = -1.0, bl_done = -1.0;
    dev.memcpy_peer(nb, 64, 1, 1000.0, 2000.0,
                    [&] { nb_done = dev.device_now(); });
    dev.memcpy_peer(bl, 64, 1, 1000.0, 2000.0,
                    [&] { bl_done = dev.device_now(); });
    dev.synchronize();
    // The non-blocking copy keeps its link-granted span; the blocking one
    // is admitted only after the default-stream barrier and completes no
    // earlier than the kernel.
    EXPECT_DOUBLE_EQ(nb_done, 2000.0);
    EXPECT_GT(bl_done, 2000.0);
    times[kind] = {nb_done, bl_done};
  }
  // Bit-identical across engines.
  EXPECT_EQ(times.at(gpusim::EngineKind::kOptimized),
            times.at(gpusim::EngineKind::kReference));
}

TEST(FleetEngine, CommDriverEventReleasesAtIssueTimeOnBothEngines) {
  for (const auto kind :
       {gpusim::EngineKind::kOptimized, gpusim::EngineKind::kReference}) {
    scuda::Context ctx(gpusim::DeviceTable::p100(), kind);
    auto& dev = ctx.device();
    const SimTime host_before = dev.host_now();
    const auto marker = dev.record_event_at(kDefaultStream, 7777.0);
    // Zero host cost: the dispatch thread's clock must not move.
    EXPECT_DOUBLE_EQ(dev.host_now(), host_before);
    dev.synchronize();
    EXPECT_DOUBLE_EQ(dev.event_time(marker), 7777.0);
  }
}

TEST(Fleet, SynchronizeAllDrainsEveryDevice) {
  scuda::Fleet fleet = scuda::Fleet::homogeneous(3, gpusim::DeviceTable::p100());
  ASSERT_EQ(fleet.size(), 3);
  fleet.device(1).device().launch_kernel(kDefaultStream, "k", cfg(32, 256),
                                         flops(1e9), {});
  fleet.synchronize_all();
  EXPECT_GT(fleet.device(1).device().device_now(), 0.0);
  EXPECT_DOUBLE_EQ(fleet.max_device_now(),
                   fleet.device(1).device().device_now());
  for (int d = 0; d < fleet.size(); ++d) {
    EXPECT_TRUE(fleet.device(d).device().stream_idle(kDefaultStream));
  }
}

// --- data-parallel training bit-exactness ----------------------------------

glpfuzz::DiffOptions fleet_options(int devices) {
  glpfuzz::DiffOptions opts;
  opts.scenario = glpfuzz::Scenario::kFleet;
  opts.devices = devices;
  return opts;
}

TEST(FleetTraining, TwoDevicesBitExactOnBothEngines) {
  const std::uint64_t seed = glptest::test_seed(3);
  GLP_SCOPED_SEED(seed);
  const glpfuzz::FuzzCase c = glpfuzz::make_fleet_case(seed);
  glpfuzz::DiffOptions opts = fleet_options(2);
  const auto r = glpfuzz::run_differential(c, opts);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.values_compared, 0u);
  EXPECT_GT(r.transfers.transfers_checked, 0u);
  // Optimized vs ReferenceEngine: every device's numerics and timeline,
  // peer copies included, event for event.
  opts.contract = glpfuzz::Contract::kEngine;
  const auto e = glpfuzz::run_differential(c, opts);
  EXPECT_TRUE(e.ok) << e.failure;
  EXPECT_GT(e.kernels_compared, 0u);
  EXPECT_GT(e.copies_compared, 0u);
}

TEST(FleetTraining, FourDevicesOverPcieBitExact) {
  const std::uint64_t seed = glptest::test_seed(4);
  GLP_SCOPED_SEED(seed);
  const glpfuzz::FuzzCase c = glpfuzz::make_fleet_case(seed);
  glpfuzz::DiffOptions opts = fleet_options(4);
  opts.topology = LinkTopology::kPcieHost;
  const auto r = glpfuzz::run_differential(c, opts);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.transfers.transfers_checked, 0u);
}

TEST(FleetTraining, SerializeThenReduceBaselineAlsoBitExact) {
  const std::uint64_t seed = glptest::test_seed(5);
  GLP_SCOPED_SEED(seed);
  const glpfuzz::FuzzCase c = glpfuzz::make_fleet_case(seed);
  glpfuzz::DiffOptions opts = fleet_options(2);
  opts.overlap = false;
  const auto r = glpfuzz::run_differential(c, opts);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(FleetTraining, BitExactUnderInjectedFaults) {
  const std::uint64_t seed = glptest::test_seed(8);
  GLP_SCOPED_SEED(seed);
  const glpfuzz::FuzzCase c = glpfuzz::make_fleet_case(seed);
  glpfuzz::DiffOptions opts = fleet_options(2);
  opts.faults.launch_failure_rate = 0.05;
  opts.faults.stream_create_failure_rate = 0.05;
  opts.faults.capture_loss_rate = 0.05;
  opts.faults.seed = seed;
  const auto r = glpfuzz::run_differential(c, opts);
  EXPECT_TRUE(r.ok) << r.failure;
}

// Timing-only replicas hold no host numerics: no gradient staging and no
// synthetic dataset. A numeric fleet stages every bucket on every device.
TEST(FleetTraining, TimingOnlyHoldsNoGradientStaging) {
  constexpr int kDevices = 2;
  for (const kern::ComputeMode mode :
       {kern::ComputeMode::kTimingOnly, kern::ComputeMode::kNumeric}) {
    const bool numeric = mode == kern::ComputeMode::kNumeric;
    SCOPED_TRACE(numeric ? "numeric" : "timing-only");
    scuda::Fleet fleet = scuda::Fleet::homogeneous(
        kDevices, gpusim::DeviceTable::p100(), scuda::FleetOptions{});
    std::vector<std::unique_ptr<kern::SerialDispatcher>> dispatchers;
    std::vector<mc::ExecContext> ecs(kDevices);
    std::vector<mc::ExecContext*> ec_ptrs;
    for (int d = 0; d < kDevices; ++d) {
      dispatchers.push_back(
          std::make_unique<kern::SerialDispatcher>(fleet.device(d)));
      mc::ExecContext& ec = ecs[static_cast<std::size_t>(d)];
      ec.ctx = &fleet.device(d);
      ec.dispatcher = dispatchers.back().get();
      ec.mode = mode;
      ec_ptrs.push_back(&ec);
    }
    comm::FleetTrainerOptions opts;
    opts.bucket_bytes = 256 << 10;
    comm::FleetTrainer trainer(fleet, ec_ptrs, mc::models::lenet(4), opts);
    trainer.step(2);
    fleet.synchronize_all();

    std::size_t floats = 0;
    for (const comm::Bucket& b : trainer.plan().buckets) floats += b.count;
    ASSERT_GT(trainer.plan().buckets.size(), 1u);
    EXPECT_EQ(trainer.staging_bytes(),
              numeric ? kDevices * floats * sizeof(float) : 0u);
    for (int d = 0; d < kDevices; ++d) {
      const mc::DataLayer* data = nullptr;
      for (const auto& layer : trainer.net(d).layers()) {
        data = dynamic_cast<const mc::DataLayer*>(layer.get());
        if (data != nullptr) break;
      }
      ASSERT_NE(data, nullptr);
      EXPECT_EQ(data->dataset() != nullptr, numeric) << "device " << d;
    }
  }
}

// --- sharded serving -------------------------------------------------------

std::vector<serving::TenantModel> fleet_tenants() {
  serving::TenantModel a;
  a.name = "tiny_cnn";
  a.spec = serving::tiny_cnn(1);
  serving::TenantModel b;
  b.name = "mlp";
  b.spec = serving::mlp(1);
  return {std::move(a), std::move(b)};
}

std::vector<std::size_t> input_sizes(
    const std::vector<serving::TenantModel>& models) {
  std::vector<std::size_t> sizes;
  for (const auto& m : models) {
    const auto& d = m.spec.layers.front().params.dataset;
    sizes.push_back(static_cast<std::size_t>(d.channels) * d.height * d.width);
  }
  return sizes;
}

std::vector<serving::InferenceRequest> fleet_trace(std::uint64_t seed,
                                                   int requests = 60) {
  serving::TraceSpec ts;
  ts.requests = requests;
  ts.rate_rps = 6000.0;
  ts.tenants = 2;
  ts.seed = seed;
  return serving::make_trace(ts, input_sizes(fleet_tenants()));
}

TEST(FleetServer, RoutesStayInsideReplicaGroups) {
  const std::uint64_t seed = glptest::test_seed(21);
  GLP_SCOPED_SEED(seed);
  const auto trace = fleet_trace(seed);
  scuda::Fleet fleet = scuda::Fleet::homogeneous(3, gpusim::DeviceTable::p100());
  serving::FleetServerOptions opts;
  opts.replicas = 2;
  serving::FleetServer server(fleet, fleet_tenants(), opts);
  const auto records = server.replay(trace);
  EXPECT_EQ(records.size(), trace.size());

  std::map<std::uint64_t, int> tenant_of;
  for (const auto& req : trace) tenant_of[req.id] = req.tenant;
  ASSERT_FALSE(server.last_routes().empty());
  for (const auto& [id, device] : server.last_routes()) {
    const auto& group = server.replica_group(tenant_of.at(id));
    EXPECT_NE(std::find(group.begin(), group.end(), device), group.end())
        << "request " << id << " routed off its replica group";
  }
}

TEST(FleetServer, IdenticalInputsRouteIdentically) {
  const std::uint64_t seed = glptest::test_seed(22);
  GLP_SCOPED_SEED(seed);
  const auto trace = fleet_trace(seed);
  std::vector<std::vector<std::pair<std::uint64_t, int>>> routes;
  for (int run = 0; run < 2; ++run) {
    scuda::Fleet fleet =
        scuda::Fleet::homogeneous(3, gpusim::DeviceTable::p100());
    serving::FleetServerOptions opts;
    opts.replicas = 2;
    serving::FleetServer server(fleet, fleet_tenants(), opts);
    server.replay(trace);
    routes.push_back(server.last_routes());
  }
  EXPECT_EQ(routes[0], routes[1]);
}

TEST(FleetServer, UnhealthyDeviceReceivesNoTraffic) {
  const std::uint64_t seed = glptest::test_seed(23);
  GLP_SCOPED_SEED(seed);
  const auto trace = fleet_trace(seed);
  scuda::Fleet fleet = scuda::Fleet::homogeneous(3, gpusim::DeviceTable::p100());
  serving::FleetServerOptions opts;
  opts.replicas = 2;
  serving::FleetServer server(fleet, fleet_tenants(), opts);
  server.set_healthy(0, false);
  const auto records = server.replay(trace);
  EXPECT_EQ(records.size(), trace.size());
  for (const auto& [id, device] : server.last_routes()) {
    EXPECT_NE(device, 0) << "request " << id << " routed to unhealthy device";
  }
}

TEST(FleetServer, SummaryCountsEveryDevicesBatches) {
  // Every device server numbers its batches from 0; the merged records
  // must keep them apart, or summarize() folds different devices'
  // batches together and undercounts.
  serving::TraceSpec ts;
  ts.requests = 400;
  ts.rate_rps = 20000.0;
  ts.tenants = 2;
  ts.seed = glptest::test_seed(25);
  ts.fill_inputs = false;
  GLP_SCOPED_SEED(ts.seed);
  scuda::Fleet fleet = scuda::Fleet::homogeneous(3, gpusim::DeviceTable::p100());
  serving::FleetServerOptions opts;
  opts.replicas = 2;
  opts.server.mode = kern::ComputeMode::kTimingOnly;
  serving::FleetServer server(fleet, fleet_tenants(), opts);
  const auto records =
      server.replay(serving::make_trace(ts, input_sizes(fleet_tenants())));

  const std::map<std::uint64_t, int> device_of(server.last_routes().begin(),
                                               server.last_routes().end());
  std::vector<std::vector<serving::RequestRecord>> per_device(
      static_cast<std::size_t>(server.devices()));
  for (const auto& r : records) {
    per_device[static_cast<std::size_t>(device_of.at(r.id))].push_back(r);
  }
  std::uint64_t device_batches = 0;
  int busy_devices = 0;
  for (const auto& recs : per_device) {
    if (recs.empty()) continue;
    ++busy_devices;
    device_batches += serving::InferenceServer::summarize(recs).batches;
  }
  ASSERT_GT(busy_devices, 1);
  EXPECT_EQ(serving::InferenceServer::summarize(records).batches,
            device_batches);
}

TEST(FleetServer, ThrowsWhenATenantLosesEveryReplica) {
  const std::uint64_t seed = glptest::test_seed(24);
  GLP_SCOPED_SEED(seed);
  const auto trace = fleet_trace(seed, 10);
  scuda::Fleet fleet = scuda::Fleet::homogeneous(2, gpusim::DeviceTable::p100());
  serving::FleetServerOptions opts;
  opts.replicas = 1;
  serving::FleetServer server(fleet, fleet_tenants(), opts);
  // With replicas=1 each tenant lives on exactly one device; killing it
  // leaves that tenant unroutable.
  server.set_healthy(server.replica_group(0).front(), false);
  EXPECT_THROW(server.replay(trace), glp::Error);
}

}  // namespace
