// The problem GLP4NN solves, made visible: manually sweeping stream
// counts for one network on three different GPUs gives three different
// optima (the paper's Observation 2 / Fig. 4), while the analytical model
// lands near each optimum from a single profiled iteration.

#include <cstdio>
#include <vector>

#include "core/glp4nn.hpp"
#include "minicaffe/models.hpp"

namespace {

double iteration_ms(scuda::Context& gpu, kern::KernelDispatcher& dispatcher,
                    int warmup, int measured) {
  mc::ExecContext ec;
  ec.ctx = &gpu;
  ec.dispatcher = &dispatcher;
  ec.mode = kern::ComputeMode::kTimingOnly;
  mc::Net net(mc::models::cifar10_quick(), ec);
  auto iterate = [&] {
    net.forward();
    net.backward();
    gpu.device().synchronize();
  };
  for (int i = 0; i < warmup; ++i) iterate();
  const double t0 = gpu.device().host_now();
  for (int i = 0; i < measured; ++i) iterate();
  return (gpu.device().host_now() - t0) / 1e6 / measured;
}

}  // namespace

int main() {
  std::printf("== why a model beats manual stream tuning (CIFAR10) ==\n\n");
  std::printf("%-10s", "streams");
  const std::vector<int> sweep = {1, 2, 4, 8, 16, 32};
  for (int s : sweep) std::printf("%8d", s);
  std::printf("%10s\n", "GLP4NN");

  for (const auto& props :
       {gpusim::DeviceTable::k40c(), gpusim::DeviceTable::p100(),
        gpusim::DeviceTable::titan_xp()}) {
    std::printf("%-10s", props.name.c_str());
    double best = 1e30;
    int best_s = 1;
    for (int s : sweep) {
      // A manual sweep: the scheduler's pool pinned at s streams, skipping
      // the model (one stream is the serial baseline).
      scuda::Context gpu(props);
      kern::SerialDispatcher serial(gpu);
      glp4nn::SchedulerOptions manual;
      manual.fixed_streams = s;
      glp4nn::Glp4nnEngine engine(manual);
      kern::KernelDispatcher* d = &serial;
      if (s > 1) d = &engine.scheduler_for(gpu);
      const double ms = iteration_ms(gpu, *d, 1, 2);
      if (ms < best) {
        best = ms;
        best_s = s;
      }
      std::printf("%8.2f", ms);
    }
    {
      scuda::Context gpu(props);
      glp4nn::Glp4nnEngine engine;
      const double ms = iteration_ms(gpu, engine.scheduler_for(gpu), 1, 2);
      std::printf("%10.2f", ms);
      std::printf("   (manual best: %d streams @ %.2f ms)\n", best_s, best);
    }
  }
  std::printf(
      "\nThe manual optimum differs per GPU; GLP4NN reaches comparable time\n"
      "with no sweep — one profiled iteration per layer, then the model.\n");
  return 0;
}
