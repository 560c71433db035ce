// Serving benchmark: latency/throughput/SLO-attainment vs. offered load
// for the inference serving subsystem. One configuration throughout —
// continuous batching (max_batch 64), 512-deep tenant queues, lane
// coalescing and a 5 ms SLO — over two traffic mixes:
//
//   * heavy mix (tiny_cnn+small_cnn), 1k-16k req/s, under both the
//     GLP4NN scheduler and the serial baseline: the scheduler-vs-serial
//     comparison the CI floors read;
//   * light mix (tiny_cnn+mlp), GLP4NN only, 40k-120k req/s: the ingest
//     sweep, with per-tenant SLO attainment reported.
//
// Writes the committed BENCH_serving.json baseline (schema
// glp4nn-bench-serving-v3, documented in docs/SERVING.md).
//
// Usage: bench_serving [--quick] [--out FILE] [--requests N]
//
// Replays are timing-only (the numerics are covered by the serving
// differential corpus); all latencies are *simulated* device/host times,
// so the baseline is stable across machines and CI runs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "gpusim/device_props.hpp"
#include "serving/model_zoo.hpp"
#include "serving/server.hpp"

namespace {

constexpr int kMaxBatch = 64;        // backlog-sized cuts at high offered load
constexpr int kQueueCapacity = 512;  // per tenant shard
constexpr double kDeadlineMs = 5.0;  // the SLO

struct ServingRecord {
  std::string mode;  ///< "glp4nn" or "serial"
  std::string mix;   ///< tenant model mix, e.g. "tiny_cnn+small_cnn"
  double rate_rps = 0.0;
  serving::ServingStats stats;
};

serving::ServingStats replay_once(const gpusim::DeviceProps& props,
                                  const std::vector<serving::TenantModel>& models,
                                  const serving::TraceSpec& ts,
                                  const ServingRecord& cfg) {
  scuda::Context ctx(props);
  serving::ServerOptions opts;
  opts.use_scheduler = cfg.mode == "glp4nn";
  opts.batch.max_batch = kMaxBatch;
  opts.queue_capacity = kQueueCapacity;
  opts.coalesce_lanes = true;
  opts.mode = kern::ComputeMode::kTimingOnly;
  serving::InferenceServer server(ctx, models, opts);
  std::vector<std::size_t> sizes;
  for (int t = 0; t < server.tenants(); ++t) {
    sizes.push_back(server.session(t).sample_input_size());
  }
  return serving::InferenceServer::summarize(
      server.replay(serving::make_trace(ts, sizes)));
}

void write_json(const std::string& path,
                const std::vector<ServingRecord>& records, int requests,
                const std::string& device) {
  std::ofstream os(path);
  GLP_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  os << "{\n"
     << "  \"schema\": \"glp4nn-bench-serving-v3\",\n"
     << bench::provenance_json(device)
     << "  \"device\": \"" << device << "\",\n"
     << "  \"models\": [\"tiny_cnn+small_cnn\", \"tiny_cnn+mlp\"],\n"
     << "  \"arrival\": \"poisson\",\n"
     << "  \"requests\": " << requests << ",\n"
     << "  \"max_batch\": " << kMaxBatch << ",\n"
     << "  \"queue_capacity\": " << kQueueCapacity << ",\n"
     << "  \"coalesce\": true,\n"
     << "  \"deadline_ms\": " << kDeadlineMs << ",\n"
     << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ServingRecord& r = records[i];
    const serving::ServingStats& s = r.stats;
    os << "    {\"mode\": \"" << r.mode << "\", \"models\": \"" << r.mix
       << "\", \"rate_rps\": " << r.rate_rps
       << ", \"served\": " << s.served << ", \"rejected\": " << s.rejected
       << ", \"shed\": " << s.shed << ", \"expired\": " << s.expired
       << ", \"slo_attainment\": " << s.slo_attainment
       << ", \"p50_ms\": " << s.p50_ms
       << ", \"p95_ms\": " << s.p95_ms << ", \"p99_ms\": " << s.p99_ms
       << ", \"mean_ms\": " << s.mean_ms
       << ", \"throughput_rps\": " << s.throughput_rps
       << ", \"batches\": " << s.batches
       << ", \"mean_batch\": " << s.mean_batch << ", \"tenants\": [";
    for (std::size_t t = 0; t < s.tenants.size(); ++t) {
      const serving::TenantStats& ten = s.tenants[t];
      os << (t ? ", " : "") << "{\"tenant\": " << ten.tenant
         << ", \"served\": " << ten.served
         << ", \"slo_attainment\": " << ten.slo_attainment
         << ", \"p99_ms\": " << ten.p99_ms
         << ", \"throughput_rps\": " << ten.throughput_rps << "}";
    }
    os << "]}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  GLP_REQUIRE(os.good(), "failed writing '" << path << "'");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int requests = 1000;
  std::string out = "BENCH_serving.json";

  glp::Flags flags("bench_serving",
                   "Serving latency/throughput/SLO vs. offered load: "
                   "scheduler vs serial under continuous batching.");
  flags.flag("quick", &quick, "CI mode: fewer load points, shorter trace")
      .opt("requests", &requests, "trace length per load point")
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
    const gpusim::DeviceProps props = gpusim::DeviceTable::p100();
    const auto make_models = [](std::initializer_list<const char*> names) {
      std::vector<serving::TenantModel> models;
      for (const char* name : names) {
        serving::TenantModel m;
        m.name = name;
        m.spec = serving::by_name(name);
        models.push_back(std::move(m));
      }
      return models;
    };
    // Heavy mix: small_cnn saturates serial dispatch around 8k req/s, so
    // this is where the scheduler-vs-serial comparison is interesting.
    const auto heavy = make_models({"tiny_cnn", "small_cnn"});
    // Light mix for the high-rate ingest sweep: small_cnn is *device*
    // compute-bound on the simulated P100 (~36k samples/s per tenant,
    // invariant in batch size), which would cap the sweep at ~73k req/s
    // no matter how good the host path is. Continuous batching and
    // coalescing target host-side launch overhead, so the ingest sweep
    // uses models with device headroom past 100k req/s.
    const auto light = make_models({"tiny_cnn", "mlp"});

    std::vector<double> rates{1000, 2000, 4000, 8000, 12000, 16000};
    std::vector<double> high_rates{40000, 80000, 100000, 120000};
    if (quick) {
      rates = {2000, 16000};
      high_rates = {100000};
      requests = std::min(requests, 300);
    }
    // High-rate points need enough trace behind them to reach steady
    // state (the first few cuts are small).
    const int high_requests = std::max(requests, 2000);

    const auto bench_point = [&](ServingRecord cfg, int n,
                                 const std::vector<serving::TenantModel>& models,
                                 const char* mix) {
      cfg.mix = mix;
      serving::TraceSpec ts;
      ts.requests = n;
      ts.rate_rps = cfg.rate_rps;
      ts.tenants = static_cast<int>(models.size());
      ts.deadline_ms = kDeadlineMs;
      ts.seed = 42;
      ts.fill_inputs = false;
      cfg.stats = replay_once(props, models, ts, cfg);
      std::printf(
          "%-7s %-20s %7.0f req/s offered | served %5zu/%-5zu | "
          "p50 %7.3f p99 %7.3f ms | %7.0f req/s | slo %6.2f%%\n",
          cfg.mode.c_str(), mix, cfg.rate_rps, cfg.stats.served,
          cfg.stats.offered, cfg.stats.p50_ms, cfg.stats.p99_ms,
          cfg.stats.throughput_rps, 100.0 * cfg.stats.slo_attainment);
      return cfg;
    };

    std::vector<ServingRecord> records;
    // Heavy mix, 1k-16k req/s: scheduler vs serial on the same options.
    for (const double rate : rates) {
      for (const char* mode : {"serial", "glp4nn"}) {
        ServingRecord cfg;
        cfg.mode = mode;
        cfg.rate_rps = rate;
        records.push_back(
            bench_point(cfg, requests, heavy, "tiny_cnn+small_cnn"));
      }
    }
    // Light mix, the ingest sweep to 120k offered req/s.
    for (const double rate : high_rates) {
      ServingRecord cfg;
      cfg.mode = "glp4nn";
      cfg.rate_rps = rate;
      records.push_back(bench_point(cfg, high_requests, light, "tiny_cnn+mlp"));
    }

    write_json(out, records, requests, props.name);
    std::printf("wrote %s (%zu records)\n", out.c_str(), records.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
