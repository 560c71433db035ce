// glp4nn_serve — replay synthetic open-loop traffic against the inference
// serving subsystem and report latency/throughput/SLO attainment.
//
//   glp4nn_serve --requests 1000 --rate 2000
//   glp4nn_serve --models tiny_cnn,mlp --arrival flash_crowd --compare
//   glp4nn_serve --max-batch 64 --rate 100000 --requests 20000
//   glp4nn_serve --slo-aware --deadline-ms 5 --qos 2000:4,0
//   glp4nn_serve --ingest-threads 4 --rate 50000
//
// With --compare the same trace is replayed twice — GLP4NN scheduler vs
// serial baseline — and both result lines are printed for a side-by-side
// read (the scheduler should win on p99 and throughput).
//
// Batching is continuous: the moment a tenant's slot frees, the server
// cuts up to --max-batch of its queued requests (--max-batch 1 serves
// every request on its own).
//
// --ingest-threads N exercises the lock-free MPMC producer→server
// handoff for real: N wall-clock producer threads push the trace through
// a bounded glp::MpmcRing, the drain side verifies nothing was lost or
// duplicated, and the drained trace is then replayed deterministically on
// the simulated clock. Everything else in the tool is simulated-time and
// bit-reproducible for a given seed.
//
// --fleet-devices N shards the tenants across an N-device fleet
// (serving/fleet_server.hpp): tenants land on --replicas-wide replica
// groups and a deterministic least-busy router splits the trace.
// --device-gen picks each device's generation (repeatable or
// comma-separated, cycled to the fleet width; default --device).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/mpmc_ring.hpp"
#include "common/strings.hpp"
#include "gpusim/device_props.hpp"
#include "gpusim/trace_export.hpp"
#include "serving/fleet_server.hpp"
#include "serving/model_zoo.hpp"
#include "serving/server.hpp"
#include "simcuda/fleet.hpp"

namespace {

[[noreturn]] void fail(const glp::Flags& flags, const std::string& error) {
  std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
               flags.usage().c_str());
  std::exit(2);
}

struct RunResult {
  serving::ServingStats stats;
  std::size_t replicas = 0;
};

void print_stats(const char* label, const RunResult& r, bool per_tenant) {
  const serving::ServingStats& s = r.stats;
  std::printf(
      "%-8s served %zu/%zu (rej %zu, shed %zu, exp %zu, miss %zu, down %zu) | "
      "p50 %.3f p95 %.3f p99 %.3f ms | %.0f req/s | slo %.2f%% | "
      "%llu batches (mean %.2f) | %zu arenas\n",
      label, s.served, s.offered, s.rejected, s.shed, s.expired,
      s.deadline_misses, s.downgraded, s.p50_ms, s.p95_ms, s.p99_ms,
      s.throughput_rps, 100.0 * s.slo_attainment,
      static_cast<unsigned long long>(s.batches), s.mean_batch, r.replicas);
  if (!per_tenant) return;
  for (const serving::TenantStats& t : s.tenants) {
    std::printf(
        "  tenant %d: served %zu/%zu (rej %zu, shed %zu, exp %zu, miss %zu, "
        "down %zu) | p99 %.3f ms | %.0f req/s | slo %.2f%%\n",
        t.tenant, t.served, t.offered, t.rejected, t.shed, t.expired,
        t.deadline_misses, t.downgraded, t.p99_ms, t.throughput_rps,
        100.0 * t.slo_attainment);
  }
}

/// Wall-clock multi-producer ingest through the lock-free ring: the trace
/// is partitioned across `threads` producers pushing concurrently while
/// this thread drains. Verifies the no-loss/no-duplication contract and
/// returns the drained trace (re-sorted by the deterministic replay).
std::vector<serving::InferenceRequest> mpmc_ingest(
    std::vector<serving::InferenceRequest> trace, int threads) {
  glp::MpmcRing<serving::InferenceRequest> ring(1024);
  const std::size_t total = trace.size();

  const auto t_start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(threads));
  for (int p = 0; p < threads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p); i < total;
           i += static_cast<std::size_t>(threads)) {
        while (!ring.try_push(std::move(trace[i]))) std::this_thread::yield();
      }
    });
  }
  std::vector<serving::InferenceRequest> drained;
  drained.reserve(total);
  while (drained.size() < total) {
    serving::InferenceRequest r;
    if (ring.try_pop(r)) {
      drained.push_back(std::move(r));
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();

  std::set<std::uint64_t> ids;
  for (const auto& r : drained) ids.insert(r.id);
  GLP_REQUIRE(ids.size() == total,
              "mpmc ingest lost or duplicated requests: " << ids.size()
                                                          << " unique of "
                                                          << total);
  std::printf(
      "mpmc ingest: %zu requests through %d producers in %.3f s "
      "(%.0f req/s wall), none lost or duplicated\n",
      total, threads, secs, static_cast<double>(total) / std::max(secs, 1e-9));
  return drained;
}

}  // namespace

int main(int argc, char** argv) {
  std::string models_csv = "tiny_cnn,small_cnn";
  std::string device = "P100", mode = "glp4nn", arrival = "poisson";
  std::string qos_csv;
  std::string trace_path, json_path;
  int requests = 1000, max_batch = 8, slots = 4, queue_cap = 64;
  int ingest_threads = 0;
  int fleet_devices = 1, replicas = 1;
  std::vector<std::string> device_gens;
  double rate = 2000.0, deadline_ms = 0.0;
  double headroom = 1.2;
  unsigned long long seed = 42;
  bool timing_only = false, compare = false;
  bool no_coalesce = false, slo_aware = false, downgrade = false;

  glp::Flags flags("glp4nn_serve",
                   "Replay synthetic open-loop inference traffic against "
                   "the multi-tenant serving subsystem.");
  flags
      .opt("models", &models_csv,
           "comma-separated tenant models: tiny_cnn|small_cnn|mlp")
      .opt("device", &device, "K40C|P100|TitanXP|Fermi|Maxwell|Volta")
      .opt("mode", &mode, "glp4nn|serial")
      .opt("requests", &requests, "trace length")
      .opt("rate", &rate, "offered load, requests/s")
      .opt("arrival", &arrival,
           "poisson|bursty|uniform|diurnal|flash_crowd|heavy_tail|adversarial")
      .opt("deadline-ms", &deadline_ms, "per-request deadline (0 = none)")
      .opt("max-batch", &max_batch,
           "batch size cap: a free slot cuts up to this many queued requests "
           "(1 = no batching)")
      .flag("no-coalesce", &no_coalesce, "disable lane coalescing")
      .flag("slo-aware", &slo_aware,
            "shed provably-late requests at admission")
      .flag("downgrade", &downgrade,
            "serve infeasible requests best-effort instead of shedding")
      .opt("headroom", &headroom, "admission feasibility safety factor")
      .opt("qos", &qos_csv,
           "per-tenant rate contracts, rate[:burst] CSV (0 = no contract)")
      .opt("slots", &slots, "concurrent in-flight batch slots")
      .opt("queue", &queue_cap, "per-tenant admission queue capacity")
      .opt("ingest-threads", &ingest_threads,
           "wall-clock MPMC ingest producers (0 = direct handoff)")
      .opt("fleet-devices", &fleet_devices,
           "shard tenants across this many devices (1 = single device)")
      .opt("replicas", &replicas, "replica-group size per tenant (fleet mode)")
      .opt_list("device-gen", &device_gens,
                "per-device generation, repeatable/comma-separated, cycled "
                "to the fleet width (default: --device everywhere)")
      .opt("seed", &seed, "trace seed")
      .flag("timing-only", &timing_only, "skip numerics; timing simulation only")
      .flag("compare", &compare, "replay under both glp4nn and serial")
      .opt("trace", &trace_path, "Chrome trace of the (last) replay")
      .opt("json", &json_path, "write stats as JSON");
  switch (flags.parse(argc, argv)) {
    case glp::Flags::Status::kHelp:
      return 0;
    case glp::Flags::Status::kError:
      return 2;
    case glp::Flags::Status::kOk:
      break;
  }

  try {
    const auto props = gpusim::DeviceTable::by_name(device);
    if (!props) fail(flags, "unknown device '" + device + "'");
    if (mode != "glp4nn" && mode != "serial") {
      fail(flags, "unknown mode '" + mode + "'");
    }
    if (fleet_devices < 1) fail(flags, "--fleet-devices must be >= 1");
    if (replicas < 1) fail(flags, "--replicas must be >= 1");
    const bool fleet_mode = fleet_devices > 1;
    if (fleet_mode && !trace_path.empty()) {
      fail(flags, "--trace exports a single device timeline; "
                  "it is not supported in fleet mode");
    }
    std::vector<gpusim::DeviceProps> fleet_props;
    for (int d = 0; d < fleet_devices; ++d) {
      if (device_gens.empty()) {
        fleet_props.push_back(*props);
      } else {
        const std::string& gen = device_gens[static_cast<std::size_t>(d) %
                                             device_gens.size()];
        const auto p = gpusim::DeviceTable::by_name(gen);
        if (!p) fail(flags, "unknown device '" + gen + "'");
        fleet_props.push_back(*p);
      }
    }
    serving::TraceSpec ts;
    ts.requests = requests;
    ts.rate_rps = rate;
    ts.tenants = 0;  // set below
    ts.deadline_ms = deadline_ms;
    ts.seed = seed;
    ts.fill_inputs = !timing_only;
    if (arrival == "poisson") {
      ts.arrival = serving::ArrivalProcess::kPoisson;
    } else if (arrival == "bursty") {
      ts.arrival = serving::ArrivalProcess::kBursty;
    } else if (arrival == "uniform") {
      ts.arrival = serving::ArrivalProcess::kUniform;
    } else if (arrival == "diurnal") {
      ts.arrival = serving::ArrivalProcess::kDiurnal;
    } else if (arrival == "flash_crowd") {
      ts.arrival = serving::ArrivalProcess::kFlashCrowd;
    } else if (arrival == "heavy_tail") {
      ts.arrival = serving::ArrivalProcess::kHeavyTail;
    } else if (arrival == "adversarial") {
      ts.arrival = serving::ArrivalProcess::kAdversarial;
    } else {
      fail(flags, "unknown arrival process '" + arrival + "'");
    }

    std::vector<serving::TenantModel> models;
    for (const std::string& name : glp::split(models_csv, ",")) {
      serving::TenantModel m;
      m.name = std::string(glp::trim(name));
      m.spec = serving::by_name(m.name);
      models.push_back(std::move(m));
    }
    if (models.empty()) fail(flags, "--models named no tenants");
    ts.tenants = static_cast<int>(models.size());

    if (!qos_csv.empty()) {
      const auto parts = glp::split(qos_csv, ",");
      if (parts.size() != models.size()) {
        fail(flags, "--qos names " + std::to_string(parts.size()) +
                        " contracts for " + std::to_string(models.size()) +
                        " tenants");
      }
      for (std::size_t t = 0; t < parts.size(); ++t) {
        const auto rb = glp::split(std::string(glp::trim(parts[t])), ":");
        models[t].qos.rate_rps = std::stod(std::string(glp::trim(rb[0])));
        if (rb.size() > 1) {
          models[t].qos.burst = std::stod(std::string(glp::trim(rb[1])));
        }
      }
    }

    serving::ServerOptions base;
    base.batch.max_batch = max_batch;
    base.coalesce_lanes = !no_coalesce;
    base.admission.slo_aware = slo_aware;
    base.admission.downgrade = downgrade;
    base.admission.headroom = headroom;
    base.slots = slots;
    base.queue_capacity = static_cast<std::size_t>(queue_cap);
    base.mode = timing_only ? kern::ComputeMode::kTimingOnly
                            : kern::ComputeMode::kNumeric;

    if (fleet_mode) {
      std::printf("serving %zu tenant(s) [%s] on a %d-device %s fleet "
                  "(%d replica(s) per tenant): %d requests @ %.0f req/s "
                  "(%s arrivals, max batch %d)\n",
                  models.size(), models_csv.c_str(), fleet_devices,
                  fleet_props.front().name.c_str(), replicas, requests, rate,
                  arrival.c_str(), max_batch);
    } else {
      std::printf("serving %zu tenant(s) [%s] on %s: %d requests @ %.0f req/s "
                  "(%s arrivals, max batch %d)\n",
                  models.size(), models_csv.c_str(), props->name.c_str(),
                  requests, rate, arrival.c_str(), max_batch);
    }

    std::vector<std::size_t> sizes;
    for (const auto& m : models) {
      const auto& d = m.spec.layers.front().params.dataset;
      sizes.push_back(static_cast<std::size_t>(d.channels) * d.height *
                      d.width);
    }
    auto trace = serving::make_trace(ts, sizes);
    if (ingest_threads > 0) {
      trace = mpmc_ingest(std::move(trace), ingest_threads);
    }

    const auto run = [&](bool use_scheduler) -> RunResult {
      RunResult r;
      if (fleet_mode) {
        scuda::Fleet fleet(fleet_props, {});
        serving::FleetServerOptions fo;
        fo.server = base;
        fo.server.use_scheduler = use_scheduler;
        fo.replicas = replicas;
        serving::FleetServer server(fleet, models, fo);
        const auto records = server.replay(trace);
        r.stats = serving::InferenceServer::summarize(records);
        for (int d = 0; d < server.devices(); ++d) {
          r.replicas += server.server(d).total_replicas();
        }
        return r;
      }
      scuda::Context gpu(*props);
      serving::ServerOptions opts = base;
      opts.use_scheduler = use_scheduler;
      if (!trace_path.empty()) opts.record_timeline = true;
      serving::InferenceServer server(gpu, models, opts);
      const auto records = server.replay(trace);
      if (!trace_path.empty()) {
        gpusim::write_chrome_trace(gpu.device().timeline(), trace_path);
      }
      r.stats = serving::InferenceServer::summarize(records);
      r.replicas = server.total_replicas();
      return r;
    };

    const bool per_tenant = models.size() > 1;
    RunResult glp_result, serial_result;
    const bool want_glp = compare || mode == "glp4nn";
    const bool want_serial = compare || mode == "serial";
    if (want_serial) {
      serial_result = run(false);
      print_stats("serial", serial_result, per_tenant);
    }
    if (want_glp) {
      glp_result = run(true);
      print_stats("glp4nn", glp_result, per_tenant);
    }
    if (compare) {
      const auto& a = glp_result.stats;
      const auto& b = serial_result.stats;
      std::printf("glp4nn vs serial: p99 %.3f vs %.3f ms (%.2fx), "
                  "throughput %.0f vs %.0f req/s (%.2fx)\n",
                  a.p99_ms, b.p99_ms, b.p99_ms / std::max(a.p99_ms, 1e-9),
                  a.throughput_rps, b.throughput_rps,
                  a.throughput_rps / std::max(b.throughput_rps, 1e-9));
    }
    if (!trace_path.empty()) {
      std::printf("trace written to '%s'\n", trace_path.c_str());
    }

    if (!json_path.empty()) {
      std::ofstream os(json_path);
      const auto dump = [&](const char* key, const RunResult& r, bool comma) {
        const serving::ServingStats& s = r.stats;
        os << "  \"" << key << "\": {\"served\": " << s.served
           << ", \"rejected\": " << s.rejected << ", \"shed\": " << s.shed
           << ", \"expired\": " << s.expired
           << ", \"downgraded\": " << s.downgraded
           << ", \"deadline_misses\": " << s.deadline_misses
           << ", \"slo_attainment\": " << s.slo_attainment
           << ", \"p50_ms\": " << s.p50_ms << ", \"p95_ms\": " << s.p95_ms
           << ", \"p99_ms\": " << s.p99_ms
           << ", \"throughput_rps\": " << s.throughput_rps
           << ", \"batches\": " << s.batches
           << ", \"mean_batch\": " << s.mean_batch
           << ", \"arenas\": " << r.replicas << ", \"tenants\": [";
        for (std::size_t i = 0; i < s.tenants.size(); ++i) {
          const serving::TenantStats& t = s.tenants[i];
          os << (i ? ", " : "") << "{\"tenant\": " << t.tenant
             << ", \"served\": " << t.served << ", \"shed\": " << t.shed
             << ", \"expired\": " << t.expired
             << ", \"downgraded\": " << t.downgraded
             << ", \"p99_ms\": " << t.p99_ms
             << ", \"slo_attainment\": " << t.slo_attainment
             << ", \"throughput_rps\": " << t.throughput_rps << "}";
        }
        os << "]}" << (comma ? ",\n" : "\n");
      };
      os << "{\n";
      if (want_glp) dump("glp4nn", glp_result, want_serial);
      if (want_serial) dump("serial", serial_result, false);
      os << "}\n";
      std::printf("stats written to '%s'\n", json_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
