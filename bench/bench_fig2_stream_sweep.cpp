// Fig. 2: speedup of CaffeNet's convolution layers over serial execution
// as the number of CUDA streams grows (Tesla P100, forward pass,
// batch-level parallelism with a manually fixed stream pool).

#include <cstdio>

#include "bench_common.hpp"
#include "common/strings.hpp"

int main(int argc, char** argv) {
  const int batch = argc > 1 ? std::atoi(argv[1]) : 256;
  const std::vector<int> stream_counts = {1, 2, 4, 8, 16, 32};
  const auto tracked = mc::models::tracked_conv_layers("CaffeNet");
  const mc::NetSpec spec = mc::models::caffenet(batch);

  bench::print_header(
      "Fig. 2: CaffeNet conv-layer forward speedup vs #streams (P100, batch " +
      std::to_string(batch) + ")");

  // Baseline: one stream.
  std::map<int, bench::RunResult> results;
  for (int s : stream_counts) {
    bench::RunConfig cfg;
    cfg.device = gpusim::DeviceTable::p100();
    bench::use_fixed_pool(cfg, s);
    cfg.forward_only = true;
    cfg.warmup_iterations = 1;
    cfg.measured_iterations = 1;
    results.emplace(s, bench::run_network(spec, tracked, cfg));
    std::fprintf(stderr, "  measured %d streams\n", s);
  }

  std::vector<int> widths = {10};
  std::vector<std::string> head = {"streams"};
  for (const auto& layer : tracked) {
    head.push_back(layer);
    widths.push_back(9);
  }
  bench::print_row(head, widths);
  const bench::RunResult& base = results.at(1);
  for (int s : stream_counts) {
    std::vector<std::string> row = {std::to_string(s)};
    for (const auto& layer : tracked) {
      const double speedup = base.layers.at(layer).forward_ms /
                             results.at(s).layers.at(layer).forward_ms;
      row.push_back(glp::strformat("%.2fx", speedup));
    }
    bench::print_row(row, widths);
  }
  std::printf("\nExpected shape: large mid layers (conv2-conv5) gain with more\n"
              "streams until occupancy or launch rate saturates; gains flatten\n"
              "or dip at high stream counts.\n");
  return 0;
}
