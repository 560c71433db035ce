#include "kernels/launcher.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace kern {

namespace {

/// Merged-launch functor: runs every staged functor in staging order —
/// the same host ops on the same buffers in the same order as the
/// unmerged per-stream FIFO execution.
struct ChainRunner {
  std::vector<gpusim::DeviceEngine::WorkFn> fns;
  void operator()() {
    for (auto& fn : fns) {
      if (fn) fn();
    }
  }
};

}  // namespace

void Stager::flush(scuda::Context& ctx, const std::string& stem) {
  gpusim::DeviceEngine& dev = ctx.device();
  // Close the window before submitting: even if a launch throws, no
  // group of it can be flushed a second time.
  const std::size_t n = live;
  live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Group& g = groups[i];
    GLP_CHECK(!g.staged.empty());
    const gpusim::StreamId target =
        ctx.faults().should_fail_launch() ? gpusim::kDefaultStream : g.stream;
    if (g.staged.size() == 1) {
      Staged& s = g.staged.front();
      dev.launch_kernel(target, std::move(s.name), s.config, s.cost,
                        std::move(s.work));
      continue;
    }
    gpusim::LaunchConfig cfg;
    gpusim::KernelCost cost;
    cfg.regs_per_thread = 0;
    bool any_work = false;
    for (const Staged& s : g.staged) {
      cfg.grid.x = std::max(cfg.grid.x, s.config.grid.x);
      cfg.grid.y = std::max(cfg.grid.y, s.config.grid.y);
      cfg.grid.z = std::max(cfg.grid.z, s.config.grid.z);
      cfg.block.x = std::max(cfg.block.x, s.config.block.x);
      cfg.block.y = std::max(cfg.block.y, s.config.block.y);
      cfg.block.z = std::max(cfg.block.z, s.config.block.z);
      cfg.regs_per_thread =
          std::max(cfg.regs_per_thread, s.config.regs_per_thread);
      cfg.smem_static_bytes =
          std::max(cfg.smem_static_bytes, s.config.smem_static_bytes);
      cfg.smem_dynamic_bytes =
          std::max(cfg.smem_dynamic_bytes, s.config.smem_dynamic_bytes);
      cost.flops += s.cost.flops;
      cost.bytes += s.cost.bytes;
      any_work = any_work || static_cast<bool>(s.work);
    }
    // Timing-only launches carry no functors: collect them only when some
    // staged kernel has one.
    gpusim::DeviceEngine::WorkFn work;
    if (any_work) {
      ChainRunner runner;
      runner.fns.reserve(g.staged.size());
      for (Staged& s : g.staged) runner.fns.push_back(std::move(s.work));
      work = std::move(runner);
    }
    dev.launch_kernel(target, stem + std::to_string(g.staged.size()), cfg,
                      cost, std::move(work));
  }
}

}  // namespace kern
