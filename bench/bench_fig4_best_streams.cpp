// Fig. 4: best observed number of concurrent streams per CaffeNet
// convolution layer, per GPU — the empirical optimum a user would find
// by sweeping, which the analytical model tries to predict without the
// sweep (compare with bench_fig8_model_streams).

#include <cstdio>

#include "bench_common.hpp"
#include "common/strings.hpp"

int main(int argc, char** argv) {
  const int batch = argc > 1 ? std::atoi(argv[1]) : 256;
  const std::vector<int> stream_counts = {1, 2, 4, 8, 16, 32};
  const auto tracked = mc::models::tracked_conv_layers("CaffeNet");
  const mc::NetSpec spec = mc::models::caffenet(batch);

  bench::print_header(
      "Fig. 4: best observed #streams per CaffeNet conv layer (forward)");
  std::vector<int> widths = {10};
  std::vector<std::string> head = {"GPU"};
  for (const auto& layer : tracked) {
    head.push_back(layer);
    widths.push_back(8);
  }
  bench::print_row(head, widths);

  for (const auto& device : bench::evaluation_gpus()) {
    std::map<std::string, std::pair<int, double>> best;  // layer → (S, ms)
    for (int s : stream_counts) {
      bench::RunConfig cfg;
      cfg.device = device;
      bench::use_fixed_pool(cfg, s);
      cfg.forward_only = true;
      cfg.warmup_iterations = 1;
      cfg.measured_iterations = 1;
      const bench::RunResult r = bench::run_network(spec, tracked, cfg);
      for (const auto& layer : tracked) {
        const double ms = r.layers.at(layer).forward_ms;
        auto it = best.find(layer);
        if (it == best.end() || ms < it->second.second) {
          best[layer] = {s, ms};
        }
      }
      std::fprintf(stderr, "  %s: measured %d streams\n", device.name.c_str(), s);
    }
    std::vector<std::string> row = {device.name};
    for (const auto& layer : tracked) {
      row.push_back(std::to_string(best.at(layer).first));
    }
    bench::print_row(row, widths);
  }
  std::printf("\nExpected shape: the optimum varies per layer and per GPU —\n"
              "the paper's motivation for an analytical model.\n");
  return 0;
}
