// Ablation: the analytical model's stream choice vs every fixed pool
// size. The model should land near the best fixed configuration on each
// GPU without any sweep.

#include <cstdio>

#include "bench_common.hpp"
#include "common/strings.hpp"

int main() {
  const mc::NetSpec spec = mc::models::cifar10_quick();
  const std::vector<int> fixed = {1, 2, 4, 8, 16, 32};

  bench::print_header(
      "Ablation: analytical model vs fixed stream counts (CIFAR10, fwd+bwd "
      "iteration ms)");
  std::vector<int> widths = {10};
  std::vector<std::string> head = {"GPU"};
  for (int s : fixed) {
    head.push_back("S=" + std::to_string(s));
    widths.push_back(8);
  }
  head.push_back("model");
  widths.push_back(9);
  head.push_back("model-vs-best");
  widths.push_back(14);
  bench::print_row(head, widths);

  for (const auto& device : bench::evaluation_gpus()) {
    std::vector<std::string> row = {device.name};
    double best = 1e30;
    for (int s : fixed) {
      bench::RunConfig cfg;
      cfg.device = device;
      bench::use_fixed_pool(cfg, s);
      const bench::RunResult r = bench::run_network(spec, {}, cfg);
      best = std::min(best, r.iteration_ms);
      row.push_back(glp::strformat("%.2f", r.iteration_ms));
    }
    bench::RunConfig cfg;
    cfg.device = device;
    cfg.mode = bench::Mode::kGlp4nn;
    const bench::RunResult model = bench::run_network(spec, {}, cfg);
    row.push_back(glp::strformat("%.2f", model.iteration_ms));
    row.push_back(glp::strformat("%.1f%%", 100.0 * (model.iteration_ms / best - 1.0)));
    bench::print_row(row, widths);
    std::fprintf(stderr, "  %s done\n", device.name.c_str());
  }
  std::printf(
      "\nExpected shape: the model's choice is within a few percent of the\n"
      "best fixed configuration on every device, without any manual sweep.\n");
  return 0;
}
