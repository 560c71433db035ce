// Fleet benchmark: the multi-GPU scale-out axis the ROADMAP asks for.
// Two sweeps, both in *simulated* time (deterministic across machines —
// the per-device schedulers run with a pinned overhead charge):
//
//   * training: data-parallel FleetTrainer over 1/2/4 devices on
//     NVLink-class and PCIe-class links, eager bucketed ring all-reduce
//     (overlap) vs the serialize-then-reduce baseline. Reports per-
//     iteration time, samples/s and scaling vs the 1-device run of the
//     same net/link config.
//   * serving: FleetServer sharding a four-tenant mix across 1/2/4
//     devices at a saturating offered rate — served throughput and p99
//     per fleet width, speedup vs the single device.
//   * collectives: CollectiveEngine micro-sweep — one bucket reduced in
//     isolation per (algorithm, topology, width, wire, chunking) point,
//     simulated makespan only. This is where the topology-aware
//     algorithm choice shows up directly: tree/hier vs flat ring on the
//     shared PCIe channel, chunk pipelining vs whole-bucket waves on
//     NVLink, and fp16-on-the-wire vs fp32.
//
// Writes the committed BENCH_fleet.json baseline (schema
// glp4nn-bench-fleet-v2, documented in docs/FLEET.md). The CI perf-smoke
// floors read it: >=3.0x training throughput at 4 NVLink devices,
// overlap beating serialize-then-reduce wherever there is communication
// (devices >= 2), fleet serving >=2x a single device, tree and hier
// beating flat ring on PCIe at 4 and 8 devices, chunk pipelining beating
// whole-bucket waves on NVLink, and fp16 wire beating fp32.
//
// Usage: bench_fleet [--quick] [--out FILE]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/data_parallel.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "core/glp4nn.hpp"
#include "gpusim/device_props.hpp"
#include "minicaffe/models.hpp"
#include "serving/fleet_server.hpp"
#include "serving/model_zoo.hpp"
#include "simcuda/fleet.hpp"

namespace {

struct TrainRecord {
  std::string net;
  int batch = 0;
  int devices = 1;
  std::string links;  ///< "nvlink" or "pcie"
  bool overlap = true;
  std::string collective;       ///< algorithm chosen for the largest bucket
  double iter_ms = 0.0;         ///< simulated makespan per iteration
  double throughput_sps = 0.0;  ///< samples/s across the whole fleet
  double scaling_x = 0.0;       ///< vs the 1-device overlap run
  std::size_t buckets = 0;
  std::size_t transfers = 0;  ///< cross-device copies per iteration
};

/// One training point: a homogeneous P100 fleet, one GLP4NN engine and
/// ExecContext per device (timing-only — the numerics are covered by the
/// fleet differential suite), warmup to let the analyzers settle, then
/// the measured window on the simulated fleet makespan.
TrainRecord train_point(const mc::NetSpec& spec, int batch, int devices,
                        gpusim::LinkTopology topo, bool overlap, int warmup,
                        int measured) {
  TrainRecord r;
  r.net = spec.name;
  r.batch = batch;
  r.devices = devices;
  r.links = topo == gpusim::LinkTopology::kNvlinkRing ? "nvlink" : "pcie";
  r.overlap = overlap;

  scuda::FleetOptions fopts;
  fopts.topology = topo;
  fopts.link = topo == gpusim::LinkTopology::kNvlinkRing
                   ? gpusim::LinkProps::nvlink()
                   : gpusim::LinkProps::pcie();
  scuda::Fleet fleet =
      scuda::Fleet::homogeneous(devices, gpusim::DeviceTable::p100(), fopts);

  glp4nn::SchedulerOptions sopts;
  sopts.overhead_charge_ms = 0.05;  // pinned => deterministic timelines
  std::vector<std::unique_ptr<glp4nn::Glp4nnEngine>> engines;
  std::vector<std::unique_ptr<mc::ExecContext>> ecs;
  std::vector<mc::ExecContext*> ec_ptrs;
  for (int d = 0; d < devices; ++d) {
    engines.push_back(std::make_unique<glp4nn::Glp4nnEngine>(sopts));
    auto ec = std::make_unique<mc::ExecContext>();
    ec->ctx = &fleet.device(d);
    ec->dispatcher = &engines.back()->scheduler_for(fleet.device(d));
    ec->mode = kern::ComputeMode::kTimingOnly;
    ec_ptrs.push_back(ec.get());
    ecs.push_back(std::move(ec));
  }

  comm::FleetTrainerOptions topts;
  topts.bucket_bytes = 256 << 10;  // DDP-style buckets; several per net
  topts.overlap = overlap;
  comm::FleetTrainer trainer(fleet, ec_ptrs, spec, topts);
  r.buckets = trainer.plan().buckets.size();
  std::size_t largest = 0;
  for (const auto& b : trainer.plan().buckets)
    largest = std::max(largest, b.count);
  r.collective =
      devices > 1 && largest > 0
          ? comm::to_string(trainer.collectives().algo_for(largest))
          : "none";

  trainer.step(warmup);
  fleet.synchronize_all();
  const gpusim::SimTime t0 = fleet.max_device_now();
  trainer.step(measured);
  fleet.synchronize_all();
  const gpusim::SimTime t1 = fleet.max_device_now();

  const double span_ns = t1 - t0;
  GLP_REQUIRE(span_ns > 0.0, "measured window has zero simulated span");
  r.iter_ms = span_ns / 1e6 / measured;
  r.throughput_sps = static_cast<double>(devices) * batch * measured /
                     (span_ns * 1e-9);
  // The engine keeps records since its last reset, i.e. one iteration.
  r.transfers = trainer.collectives().transfers().size();
  return r;
}

struct ServeRecord {
  int devices = 1;
  int replicas = 1;
  double rate_rps = 0.0;
  double speedup_x = 0.0;  ///< throughput vs the 1-device run at this rate
  serving::ServingStats stats;
};

/// One serving point: a compute-heavy four-tenant mix sharded across a
/// homogeneous fleet, continuous batching + lane coalescing under a 5 ms
/// SLO, driven well past single-device saturation so the fleet speedup
/// is visible in *served* throughput.
ServeRecord serve_point(int devices, int replicas, double rate, int requests) {
  ServeRecord r;
  r.devices = devices;
  r.replicas = replicas;
  r.rate_rps = rate;

  std::vector<serving::TenantModel> models;
  // small_cnn is *device* compute-bound on the simulated P100, so a
  // single device saturates well below the offered rate and extra
  // devices translate directly into served throughput.
  for (const char* name : {"tiny_cnn", "small_cnn", "tiny_cnn", "small_cnn"}) {
    serving::TenantModel m;
    m.name = name;
    m.spec = serving::by_name(name);
    models.push_back(std::move(m));
  }

  serving::TraceSpec ts;
  ts.requests = requests;
  ts.rate_rps = rate;
  ts.tenants = static_cast<int>(models.size());
  ts.deadline_ms = 5.0;
  ts.seed = 42;
  ts.fill_inputs = false;

  std::vector<std::size_t> sizes;
  for (const auto& m : models) {
    const auto& d = m.spec.layers.front().params.dataset;
    sizes.push_back(static_cast<std::size_t>(d.channels) * d.height * d.width);
  }

  scuda::Fleet fleet =
      scuda::Fleet::homogeneous(devices, gpusim::DeviceTable::p100(), {});
  serving::FleetServerOptions fo;
  fo.server.use_scheduler = true;
  fo.server.scheduler.overhead_charge_ms = 0.05;
  fo.server.batch.max_batch = 64;
  fo.server.queue_capacity = 512;
  fo.server.coalesce_lanes = true;
  fo.server.mode = kern::ComputeMode::kTimingOnly;
  fo.replicas = replicas;
  serving::FleetServer server(fleet, models, fo);

  r.stats = serving::InferenceServer::summarize(
      server.replay(serving::make_trace(ts, sizes)));
  return r;
}

struct CollectiveRecord {
  std::string choice;  ///< requested: auto | ring | tree | hier
  std::string algo;    ///< algorithm the cost model actually ran
  std::string links;
  int devices = 1;
  std::size_t count = 0;
  std::string wire;        ///< "fp32" or "fp16"
  std::size_t chunk = 0;   ///< pipeline_chunk_bytes (0 = whole bucket)
  double makespan_ms = 0.0;
  std::size_t transfers = 0;
};

/// One collective point: a fresh fleet reduces a single `count`-element
/// bucket (timing only) and the record keeps the simulated makespan —
/// the pure all-reduce cost with no training compute around it.
CollectiveRecord collective_point(comm::CollectiveChoice choice,
                                  gpusim::LinkTopology topo, int devices,
                                  std::size_t count, comm::WireFormat wire,
                                  std::size_t chunk_bytes) {
  CollectiveRecord r;
  r.choice = comm::to_string(choice);
  r.links = topo == gpusim::LinkTopology::kNvlinkRing ? "nvlink" : "pcie";
  r.devices = devices;
  r.count = count;
  r.wire = wire == comm::WireFormat::kFp16 ? "fp16" : "fp32";
  r.chunk = chunk_bytes;

  scuda::FleetOptions fopts;
  fopts.topology = topo;
  fopts.link = topo == gpusim::LinkTopology::kNvlinkRing
                   ? gpusim::LinkProps::nvlink()
                   : gpusim::LinkProps::pcie();
  scuda::Fleet fleet =
      scuda::Fleet::homogeneous(devices, gpusim::DeviceTable::p100(), fopts);

  comm::CollectiveOptions copts;
  copts.collective = choice;
  copts.wire = wire;
  copts.pipeline_chunk_bytes = chunk_bytes;
  comm::CollectiveEngine engine(fleet, copts);
  r.algo = comm::to_string(engine.algo_for(count));

  const std::vector<float*> flat(static_cast<std::size_t>(devices), nullptr);
  const std::vector<gpusim::SimTime> ready(static_cast<std::size_t>(devices),
                                           0.0);
  engine.reduce(flat, count, ready, /*numeric=*/false);
  fleet.synchronize_all();
  r.makespan_ms = fleet.max_device_now() / 1e6;
  r.transfers = engine.transfers().size();
  return r;
}

void write_json(const std::string& path, const std::vector<TrainRecord>& train,
                const std::vector<ServeRecord>& serve,
                const std::vector<CollectiveRecord>& coll) {
  std::ofstream os(path);
  GLP_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  os << "{\n"
     << "  \"schema\": \"glp4nn-bench-fleet-v2\",\n"
     << bench::provenance_json("P100") << "  \"training\": [\n";
  for (std::size_t i = 0; i < train.size(); ++i) {
    const TrainRecord& r = train[i];
    os << "    {\"net\": \"" << r.net << "\", \"batch\": " << r.batch
       << ", \"devices\": " << r.devices << ", \"links\": \"" << r.links
       << "\", \"mode\": \"" << (r.overlap ? "overlap" : "serialize")
       << "\", \"collective\": \"" << r.collective
       << "\", \"iter_ms\": " << r.iter_ms
       << ", \"throughput_sps\": " << r.throughput_sps
       << ", \"scaling_x\": " << r.scaling_x << ", \"buckets\": " << r.buckets
       << ", \"transfers\": " << r.transfers << "}"
       << (i + 1 < train.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"serving\": [\n";
  for (std::size_t i = 0; i < serve.size(); ++i) {
    const ServeRecord& r = serve[i];
    const serving::ServingStats& s = r.stats;
    os << "    {\"devices\": " << r.devices << ", \"replicas\": " << r.replicas
       << ", \"rate_rps\": " << r.rate_rps << ", \"served\": " << s.served
       << ", \"offered\": " << s.offered << ", \"rejected\": " << s.rejected
       << ", \"shed\": " << s.shed << ", \"p50_ms\": " << s.p50_ms
       << ", \"p99_ms\": " << s.p99_ms
       << ", \"throughput_rps\": " << s.throughput_rps
       << ", \"slo_attainment\": " << s.slo_attainment
       << ", \"speedup_x\": " << r.speedup_x << "}"
       << (i + 1 < serve.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"collectives\": [\n";
  for (std::size_t i = 0; i < coll.size(); ++i) {
    const CollectiveRecord& r = coll[i];
    os << "    {\"choice\": \"" << r.choice << "\", \"algo\": \"" << r.algo
       << "\", \"links\": \"" << r.links << "\", \"devices\": " << r.devices
       << ", \"count\": " << r.count << ", \"wire\": \"" << r.wire
       << "\", \"chunk_bytes\": " << r.chunk
       << ", \"makespan_ms\": " << r.makespan_ms
       << ", \"transfers\": " << r.transfers << "}"
       << (i + 1 < coll.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  GLP_REQUIRE(os.good(), "failed writing '" << path << "'");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_fleet.json";

  glp::Flags flags("bench_fleet",
                   "Multi-device fleet scaling: data-parallel training over "
                   "NVLink/PCIe links (overlap vs serialize-then-reduce) and "
                   "sharded serving throughput vs fleet width.");
  flags.flag("quick", &quick, "CI mode: fewer nets/points, shorter windows")
      .opt("out", &out, "output JSON path");
  switch (flags.parse(argc, argv)) {
    case glp::Flags::Status::kHelp:
      return 0;
    case glp::Flags::Status::kError:
      return 2;
    case glp::Flags::Status::kOk:
      break;
  }

  try {
    struct NetPoint {
      mc::NetSpec spec;
      int batch;
    };
    std::vector<NetPoint> nets;
    nets.push_back({mc::models::lenet(), 64});
    if (!quick) nets.push_back({mc::models::cifar10_quick(), 100});

    const int warmup = 2;
    const int measured = quick ? 3 : 5;
    const std::vector<int> widths{1, 2, 4};

    std::vector<TrainRecord> train;
    for (const NetPoint& np : nets) {
      for (const gpusim::LinkTopology topo :
           {gpusim::LinkTopology::kNvlinkRing, gpusim::LinkTopology::kPcieHost}) {
        double base_sps = 0.0;
        for (const int n : widths) {
          // 1 device has no communication, so overlap == serialize there;
          // the baseline comparison only exists from 2 devices up.
          for (const bool overlap : {true, false}) {
            if (n == 1 && !overlap) continue;
            TrainRecord r =
                train_point(np.spec, np.batch, n, topo, overlap, warmup,
                            measured);
            if (n == 1) base_sps = r.throughput_sps;
            r.scaling_x = base_sps > 0.0 ? r.throughput_sps / base_sps : 0.0;
            std::printf(
                "train %-13s %dx%-6s %-9s %-4s | iter %8.3f ms | %9.0f "
                "samples/s | %4.2fx | %zu bucket(s), %zu transfer(s)\n",
                r.net.c_str(), r.devices, r.links.c_str(),
                r.overlap ? "overlap" : "serialize", r.collective.c_str(),
                r.iter_ms, r.throughput_sps, r.scaling_x, r.buckets,
                r.transfers);
            train.push_back(std::move(r));
          }
        }
      }
    }

    // Serving: drive every fleet width with the same saturating trace.
    const double rate = 320000.0;
    const int requests = quick ? 2000 : 6000;
    std::vector<ServeRecord> serve;
    double base_rps = 0.0;
    for (const int n : widths) {
      ServeRecord r = serve_point(n, 2, rate, requests);
      if (n == 1) base_rps = r.stats.throughput_rps;
      r.speedup_x =
          base_rps > 0.0 ? r.stats.throughput_rps / base_rps : 0.0;
      std::printf(
          "serve %d device(s) @ %.0f offered | served %zu/%zu | p99 %7.3f ms "
          "| %8.0f req/s | %4.2fx | slo %6.2f%%\n",
          r.devices, r.rate_rps, r.stats.served, r.stats.offered,
          r.stats.p99_ms, r.stats.throughput_rps, r.speedup_x,
          100.0 * r.stats.slo_attainment);
      serve.push_back(std::move(r));
    }

    // Collective micro-sweep: one 1M-element (4 MB fp32) bucket.
    const std::size_t cnt = std::size_t{1} << 20;
    std::vector<CollectiveRecord> coll;
    auto run_coll = [&](comm::CollectiveChoice choice,
                        gpusim::LinkTopology topo, int n,
                        comm::WireFormat wire, std::size_t chunk) {
      CollectiveRecord r = collective_point(choice, topo, n, cnt, wire, chunk);
      std::printf(
          "coll  %-4s (ran %-4s) %dx%-6s %s chunk %6zu | makespan %8.3f ms "
          "| %zu transfer(s)\n",
          r.choice.c_str(), r.algo.c_str(), r.devices, r.links.c_str(),
          r.wire.c_str(), r.chunk, r.makespan_ms, r.transfers);
      coll.push_back(std::move(r));
    };
    // Algorithm face-off on the shared PCIe channel (whole bucket).
    for (const int n : {4, 8}) {
      for (const comm::CollectiveChoice c :
           {comm::CollectiveChoice::kRing, comm::CollectiveChoice::kTree,
            comm::CollectiveChoice::kHier, comm::CollectiveChoice::kAuto}) {
        run_coll(c, gpusim::LinkTopology::kPcieHost, n,
                 comm::WireFormat::kFp32, 0);
      }
    }
    // Chunk pipelining vs whole-bucket waves on the NVLink ring.
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{256} << 10}) {
      run_coll(comm::CollectiveChoice::kRing, gpusim::LinkTopology::kNvlinkRing,
               4, comm::WireFormat::kFp32, chunk);
    }
    // fp16 on the wire halves every message.
    run_coll(comm::CollectiveChoice::kRing, gpusim::LinkTopology::kPcieHost, 4,
             comm::WireFormat::kFp16, 0);

    write_json(out, train, serve, coll);
    std::printf("wrote %s (%zu training + %zu serving + %zu collective "
                "records)\n",
                out.c_str(), train.size(), serve.size(), coll.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
