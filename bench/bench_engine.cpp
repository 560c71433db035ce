// Engine hot-path benchmark: drives the discrete-event engine directly
// (no NN stack) with synthetic op programs and measures host wall-clock
// throughput in processed ops ("events") per second, for both the
// optimized engine and the ReferenceEngine seam. Writes the committed
// BENCH_engine.json baseline the CI perf-smoke checks against.
//
// Three workloads:
//   * stream-sweep: S streams, each submitting a chain of small kernels
//     round-robin with periodic device syncs. Stresses admission order,
//     the event horizon and residency recomputation — the paths the
//     reference loop pays O(S log S) per event for.
//   * serving-mix: a serving-shaped program — H2D copy, fan-out kernels
//     guarded by events across slice streams, D2H copy, host callback,
//     periodic lookahead — resembling the inference server's op stream.
//   * sparse-pool: the tenant-sliced server's stream shape — ~100 live
//     streams of which one to four hold work at a time. Each scope forks
//     a few pool streams off its slice's home stream through an event and
//     joins them back, and the device is driven up to the host clock
//     after every scope. Stresses the per-pass cost of idle streams.
//   * glp4nn-scopes: a GLP4NN training step's launch stream — per layer,
//     a default-stream kernel, a fork event, lane streams running
//     per-sample kernels of mixed grid sizes, and a join back to the
//     default stream. The host runs scopes ahead of the device, so each
//     lane's next scope waits behind a default-stream barrier: the stream
//     walk and residency repacks over a multi-kernel resident set that
//     GLP4NN's host overhead is made of.
//
// Timings are real wall-clock (this benchmark measures the simulator
// itself, not the simulated device), so absolute numbers vary across
// machines; the committed speedup ratios are the stable signal.
//
// Usage: bench_engine [--quick] [--out FILE]

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "gpusim/engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

gpusim::LaunchConfig small_config(unsigned variant) {
  gpusim::LaunchConfig cfg;
  cfg.grid = {16 + variant % 48, 1, 1};
  cfg.block = {128, 1, 1};
  cfg.regs_per_thread = 24 + static_cast<int>(variant % 3) * 8;
  cfg.smem_static_bytes = (variant % 4) * 1024;
  return cfg;
}

gpusim::KernelCost small_cost() {
  gpusim::KernelCost cost;
  cost.flops = 4.0e6;
  cost.bytes = 2.0e5;
  return cost;
}

struct WorkloadResult {
  std::size_t ops = 0;       ///< ops the program submitted + completed
  double wall_ms = 0.0;      ///< host wall-clock for the whole replay
  double sim_ns = 0.0;       ///< simulated time span (must match across engines)
};

/// S streams, `rounds` waves of one kernel per stream, syncing the device
/// every `sync_every` waves so queues drain and repack repeatedly.
WorkloadResult run_stream_sweep(gpusim::EngineKind kind, int streams,
                                int rounds, int sync_every) {
  auto dev = gpusim::make_device_engine(gpusim::DeviceTable::p100(), kind);
  std::vector<gpusim::StreamId> ids;
  for (int s = 0; s < streams; ++s) ids.push_back(dev->create_stream(s % 3));

  WorkloadResult r;
  const auto t0 = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (int s = 0; s < streams; ++s) {
      dev->launch_kernel(ids[s], "sweep",
                         small_config(static_cast<unsigned>(round + s)),
                         small_cost(), {});
      ++r.ops;
    }
    if ((round + 1) % sync_every == 0) dev->synchronize();
  }
  dev->synchronize();
  for (gpusim::StreamId id : ids) dev->destroy_stream(id);
  r.wall_ms = ms_since(t0);
  r.sim_ns = dev->device_now();
  return r;
}

/// Serving-shaped mix over a few slice streams: upload, fan-out guarded
/// by events, compute, join, download, host callback, periodic lookahead.
WorkloadResult run_serving_mix(gpusim::EngineKind kind, int slices,
                               int batches) {
  auto dev = gpusim::make_device_engine(gpusim::DeviceTable::p100(), kind);
  const gpusim::StreamId home = dev->create_stream(2);
  std::vector<gpusim::StreamId> pool;
  for (int s = 0; s < slices; ++s) pool.push_back(dev->create_stream(0));

  WorkloadResult r;
  int completions = 0;
  const auto t0 = Clock::now();
  for (int b = 0; b < batches; ++b) {
    dev->memcpy_async(home, 1 << 14, /*host_to_device=*/true, {});
    ++r.ops;
    const gpusim::EventId ready = dev->record_event(home);
    ++r.ops;
    std::vector<gpusim::EventId> done;
    for (int s = 0; s < slices; ++s) {
      dev->wait_event(pool[s], ready);
      ++r.ops;
      for (int k = 0; k < 3; ++k) {
        dev->launch_kernel(pool[s], "slice",
                           small_config(static_cast<unsigned>(b + s + k)),
                           small_cost(), {});
        ++r.ops;
      }
      done.push_back(dev->record_event(pool[s]));
      ++r.ops;
    }
    for (const gpusim::EventId ev : done) {
      dev->wait_event(home, ev);
      ++r.ops;
    }
    dev->memcpy_async(home, 1 << 12, /*host_to_device=*/false, {});
    ++r.ops;
    dev->host_callback(home, [&completions] { ++completions; });
    ++r.ops;
    if ((b + 1) % 8 == 0) {
      // The serving event loop's lookahead: peek, then drive the device
      // up to the next event without synchronising the host clock.
      const gpusim::SimTime next = dev->peek_next_event();
      if (next < dev->device_now() + 1e9) dev->advance_device_to(next);
    }
  }
  dev->synchronize();
  GLP_CHECK(completions == batches);
  for (gpusim::StreamId id : pool) dev->destroy_stream(id);
  dev->destroy_stream(home);
  r.wall_ms = ms_since(t0);
  r.sim_ns = dev->device_now();
  return r;
}

/// `slices` home streams, each owning a `width`-wide slice of pool
/// streams. Scope i runs on slice i % slices: a kernel on the home
/// stream, a fork event, one to four pool streams that wait on it and
/// run two kernels each, and a join back to the home stream. After every
/// scope the device catches up with the host clock, as the serving event
/// loop's lookahead does, so only the last scope's streams stay busy.
WorkloadResult run_sparse_pool(gpusim::EngineKind kind, int slices, int width,
                               int scopes) {
  auto dev = gpusim::make_device_engine(gpusim::DeviceTable::p100(), kind);
  std::vector<gpusim::StreamId> homes, pool;
  for (int s = 0; s < slices; ++s) homes.push_back(dev->create_stream(1));
  for (int s = 0; s < slices * width; ++s) {
    pool.push_back(dev->create_stream(0));
  }

  WorkloadResult r;
  std::uint64_t state = 0x243f6a8885a308d3ull;  // xorshift: machine-independent
  const auto rnd = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % bound);
  };
  std::vector<gpusim::EventId> joins;
  const auto t0 = Clock::now();
  for (int scope = 0; scope < scopes; ++scope) {
    const int slice = scope % slices;
    const gpusim::StreamId home = homes[static_cast<std::size_t>(slice)];
    dev->launch_kernel(home, "scope",
                       small_config(static_cast<unsigned>(scope)), small_cost(),
                       {});
    const gpusim::EventId fork = dev->record_event(home);
    r.ops += 2;
    joins.clear();
    const int used = 1 + rnd(4);
    const int first = rnd(width);
    for (int i = 0; i < used; ++i) {
      const gpusim::StreamId s =
          pool[static_cast<std::size_t>(slice * width + (first + i) % width)];
      dev->wait_event(s, fork);
      for (int k = 0; k < 2; ++k) {
        dev->launch_kernel(s, "sample",
                           small_config(static_cast<unsigned>(scope + i + k)),
                           small_cost(), {});
      }
      joins.push_back(dev->record_event(s));
      r.ops += 4;
    }
    for (const gpusim::EventId ev : joins) dev->wait_event(home, ev);
    r.ops += joins.size();
    dev->advance_device_to(dev->host_now());
  }
  dev->synchronize();
  for (gpusim::StreamId id : pool) dev->destroy_stream(id);
  for (gpusim::StreamId id : homes) dev->destroy_stream(id);
  r.wall_ms = ms_since(t0);
  r.sim_ns = dev->device_now();
  return r;
}

/// Per-sample kernel shapes of mixed grid sizes, as a convolution's
/// per-image GEMMs and im2col kernels mix them.
gpusim::LaunchConfig sample_config(unsigned variant) {
  gpusim::LaunchConfig cfg;
  cfg.grid = {4 + (variant * 37) % 192, 1, 1};
  cfg.block = {64u << (variant % 3), 1, 1};
  cfg.regs_per_thread = 32 + static_cast<int>(variant % 4) * 8;
  cfg.smem_static_bytes = (variant % 2) * 4096;
  return cfg;
}

/// `lanes` lane streams; each of `scopes` scopes launches a default-stream
/// kernel, records a fork event every lane waits on, spreads `samples`
/// per-sample kernels round-robin over the lanes, and joins every lane
/// back into the default stream. The host syncs once every `sync_every`
/// scopes (an iteration), so up to that many scopes queue at once and
/// every lane head but the running scope's waits on the default stream.
WorkloadResult run_glp4nn_scopes(gpusim::EngineKind kind, int lanes, int scopes,
                                 int samples, int sync_every) {
  auto dev = gpusim::make_device_engine(gpusim::DeviceTable::p100(), kind);
  std::vector<gpusim::StreamId> ids;
  for (int l = 0; l < lanes; ++l) ids.push_back(dev->create_stream(0));

  WorkloadResult r;
  std::vector<gpusim::EventId> joins;
  const auto t0 = Clock::now();
  for (int scope = 0; scope < scopes; ++scope) {
    dev->launch_kernel(gpusim::kDefaultStream, "layer",
                       small_config(static_cast<unsigned>(scope)), small_cost(),
                       {});
    const gpusim::EventId fork = dev->record_event(gpusim::kDefaultStream);
    r.ops += 2;
    for (const gpusim::StreamId id : ids) dev->wait_event(id, fork);
    r.ops += ids.size();
    for (int n = 0; n < samples; ++n) {
      dev->launch_kernel(ids[static_cast<std::size_t>(n % lanes)], "sample",
                         sample_config(static_cast<unsigned>(scope * samples + n)),
                         small_cost(), {});
      ++r.ops;
    }
    joins.clear();
    for (const gpusim::StreamId id : ids) joins.push_back(dev->record_event(id));
    for (const gpusim::EventId ev : joins) {
      dev->wait_event(gpusim::kDefaultStream, ev);
    }
    r.ops += 2 * joins.size();
    if ((scope + 1) % sync_every == 0) dev->synchronize();
  }
  dev->synchronize();
  for (gpusim::StreamId id : ids) dev->destroy_stream(id);
  r.wall_ms = ms_since(t0);
  r.sim_ns = dev->device_now();
  return r;
}

struct Record {
  std::string workload;
  std::string engine;
  int streams = 0;
  WorkloadResult res;
  double events_per_sec() const {
    return res.wall_ms > 0.0 ? 1000.0 * static_cast<double>(res.ops) / res.wall_ms
                             : 0.0;
  }
};

void write_json(const std::string& path, const std::vector<Record>& records) {
  std::ofstream os(path);
  GLP_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  os << "{\n"
     << "  \"schema\": \"glp4nn-bench-engine-v1\",\n"
     << bench::provenance_json("P100")
     << "  \"device\": \"P100\",\n"
     << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    os << "    {\"workload\": \"" << r.workload << "\", \"engine\": \""
       << r.engine << "\", \"streams\": " << r.streams
       << ", \"ops\": " << r.res.ops << ", \"wall_ms\": " << r.res.wall_ms
       << ", \"events_per_sec\": " << r.events_per_sec()
       << ", \"sim_ns\": " << r.res.sim_ns << "}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"speedups\": [\n";
  // One optimized/reference ratio per (workload, streams) pair, in the
  // order the record pairs appear.
  bool first = true;
  for (std::size_t i = 0; i + 1 < records.size(); i += 2) {
    const Record& opt = records[i];
    const Record& ref = records[i + 1];
    if (!first) os << ",\n";
    first = false;
    os << "    {\"workload\": \"" << opt.workload
       << "\", \"streams\": " << opt.streams << ", \"speedup\": "
       << (ref.res.wall_ms > 0.0 ? opt.events_per_sec() / ref.events_per_sec()
                                 : 0.0)
       << "}";
  }
  os << "\n  ]\n}\n";
  GLP_REQUIRE(os.good(), "failed writing '" << path << "'");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_engine.json";

  glp::Flags flags("bench_engine",
                   "Engine hot-path throughput: optimized engine vs the "
                   "ReferenceEngine seam on synthetic op programs.");
  flags.flag("quick", &quick, "CI mode: smaller sweeps")
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
    std::vector<int> sweep_streams{8, 32, 96};
    int rounds = 300, sync_every = 25, slices = 8, batches = 600;
    // Four 24-wide slices: 96 pool + 4 home + the default stream.
    const int pool_slices = 4, pool_width = 24;
    int scopes = 3000;
    // Eight lanes, 32 samples per scope, 16 scopes an iteration.
    const int glp_lanes = 8, glp_samples = 32, glp_sync_every = 16;
    int glp_scopes = 800;
    if (quick) {
      sweep_streams = {32};
      rounds = 120;
      batches = 200;
      scopes = 1000;
      glp_scopes = 240;
    }

    std::vector<Record> records;
    const auto run_pair = [&records](const std::string& workload, int streams,
                                     auto&& fn) {
      for (const gpusim::EngineKind kind :
           {gpusim::EngineKind::kOptimized, gpusim::EngineKind::kReference}) {
        Record r;
        r.workload = workload;
        r.engine = kind == gpusim::EngineKind::kOptimized ? "optimized"
                                                          : "reference";
        r.streams = streams;
        r.res = fn(kind);
        records.push_back(r);
        std::printf("%-12s S=%-3d %-9s | %7zu ops in %8.2f ms | %10.0f events/s\n",
                    workload.c_str(), streams, r.engine.c_str(), r.res.ops,
                    r.res.wall_ms, r.events_per_sec());
      }
      // The simulated timelines must agree — the optimized loop changes
      // wall-clock, never the simulation.
      const Record& opt = records[records.size() - 2];
      const Record& ref = records[records.size() - 1];
      GLP_REQUIRE(opt.res.sim_ns == ref.res.sim_ns,
                  "engines disagree on simulated time for " << workload);
      std::printf("%-12s S=%-3d speedup %.2fx\n", workload.c_str(), streams,
                  opt.events_per_sec() / ref.events_per_sec());
    };

    for (const int streams : sweep_streams) {
      run_pair("stream-sweep", streams, [&](gpusim::EngineKind kind) {
        return run_stream_sweep(kind, streams, rounds, sync_every);
      });
    }
    run_pair("serving-mix", slices, [&](gpusim::EngineKind kind) {
      return run_serving_mix(kind, slices, batches);
    });
    run_pair("sparse-pool", pool_slices * (pool_width + 1) + 1,
             [&](gpusim::EngineKind kind) {
               return run_sparse_pool(kind, pool_slices, pool_width, scopes);
             });
    run_pair("glp4nn-scopes", glp_lanes + 1, [&](gpusim::EngineKind kind) {
      return run_glp4nn_scopes(kind, glp_lanes, glp_scopes, glp_samples,
                               glp_sync_every);
    });

    write_json(out, records);
    std::printf("wrote %s (%zu records)\n", out.c_str(), records.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
