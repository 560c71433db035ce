#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "common/strings.hpp"

namespace bench {

namespace {

// Span of one scope within a half-open time window: [min start, max end]
// over kernels whose names begin with "<prefix>/".
double scope_span_ms(const std::vector<gpusim::KernelRecord>& records,
                     const std::string& prefix) {
  double lo = 0.0, hi = 0.0;
  bool any = false;
  const std::string want = prefix + "/";
  for (const auto& rec : records) {
    if (!glp::starts_with(rec.name, want)) continue;
    if (!any) {
      lo = rec.start_ns;
      hi = rec.end_ns;
      any = true;
    } else {
      lo = std::min(lo, rec.start_ns);
      hi = std::max(hi, rec.end_ns);
    }
  }
  return any ? (hi - lo) / 1e6 : 0.0;
}

}  // namespace

RunResult run_network(const mc::NetSpec& spec,
                      const std::vector<std::string>& tracked,
                      const RunConfig& config) {
  scuda::Context ctx(config.device);
  std::unique_ptr<kern::SerialDispatcher> serial;
  std::unique_ptr<glp4nn::Glp4nnEngine> engine;

  ctx.device().set_register_penalty_enabled(config.register_penalty);
  mc::ExecContext ec;
  ec.ctx = &ctx;
  ec.mode = config.compute;
  ec.fuse_conv_bias = config.fuse_conv_bias;
  ec.dag_schedule = config.dag_schedule;
  switch (config.mode) {
    case Mode::kSerial:
      serial = std::make_unique<kern::SerialDispatcher>(ctx);
      ec.dispatcher = serial.get();
      break;
    case Mode::kGlp4nn:
      engine = std::make_unique<glp4nn::Glp4nnEngine>(config.scheduler);
      ec.dispatcher = &engine->scheduler_for(ctx);
      break;
  }

  mc::Net net(spec, ec);

  auto iterate = [&] {
    net.forward();
    if (!config.forward_only) net.backward();
    ctx.device().synchronize();
  };

  for (int i = 0; i < config.warmup_iterations; ++i) iterate();

  RunResult result;
  gpusim::Timeline& timeline = ctx.device().timeline();
  double total_ms = 0.0;
  for (int i = 0; i < config.measured_iterations; ++i) {
    timeline.clear();
    timeline.set_enabled(true);
    const double t0 = ctx.device().host_now();
    iterate();
    total_ms += (ctx.device().host_now() - t0) / 1e6;
    timeline.set_enabled(false);

    for (const std::string& layer : tracked) {
      LayerTiming& t = result.layers[layer];
      t.forward_ms += scope_span_ms(timeline.kernels(), layer + "/fwd");
      t.backward_ms += scope_span_ms(timeline.kernels(), layer + "/bwd");
    }
  }
  const double n = std::max(config.measured_iterations, 1);
  result.iteration_ms = total_ms / n;
  for (auto& [layer, timing] : result.layers) {
    timing.forward_ms /= n;
    timing.backward_ms /= n;
  }

  if (engine != nullptr) {
    result.costs = engine->costs();
    if (auto* analyzer = engine->analyzer_for(ctx)) {
      for (const auto& [scope, decision] : analyzer->decisions()) {
        result.stream_counts[scope] =
            engine->scheduler_for(ctx).stream_count(scope);
      }
    }
  }
  result.device_bytes = ctx.peak_bytes_allocated();
  return result;
}

void use_fixed_pool(RunConfig& config, int streams) {
  config.mode = streams > 1 ? Mode::kGlp4nn : Mode::kSerial;
  config.scheduler.fixed_streams = streams;
}

std::vector<gpusim::DeviceProps> evaluation_gpus() {
  return {gpusim::DeviceTable::k40c(), gpusim::DeviceTable::p100(),
          gpusim::DeviceTable::titan_xp()};
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    line += glp::strformat("%-*s", w, cells[i].c_str());
  }
  std::printf("%s\n", line.c_str());
}

std::string provenance_json(const std::string& device) {
  std::string git = "unknown";
#if !defined(_WIN32)
  // Describe the source tree the bench was built from, not the working
  // directory it happens to run in.
  const std::string cmd = std::string("git -C '")
                              .append(GLP_SOURCE_DIR)
                              .append("' describe --always --dirty 2>/dev/null");
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[128] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) git = line;
    }
    pclose(pipe);
  }
#endif
  std::ostringstream os;
  os << "  \"provenance\": {\"device\": \"" << device
     << "\", \"host_threads\": " << std::thread::hardware_concurrency()
     << ", \"git\": \"" << git << "\"},\n";
  return os.str();
}

}  // namespace bench
