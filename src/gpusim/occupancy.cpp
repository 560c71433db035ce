#include "gpusim/occupancy.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gpusim {

int max_blocks_per_sm_single(const DeviceProps& dev, const LaunchConfig& cfg) {
  const std::uint64_t threads = cfg.threads_per_block();
  GLP_REQUIRE(threads > 0, "kernel block must have at least one thread");

  int limit = dev.max_blocks_per_sm;
  limit = std::min<int>(limit, static_cast<int>(dev.max_threads_per_sm / threads));
  const std::size_t smem = cfg.smem_per_block();
  if (smem > 0) {
    if (smem > dev.shared_mem_per_sm) return 0;
    limit = std::min<int>(limit, static_cast<int>(dev.shared_mem_per_sm / smem));
  }
  return std::max(limit, 0);
}

double single_kernel_occupancy(const DeviceProps& dev, const LaunchConfig& cfg) {
  const int blocks = max_blocks_per_sm_single(dev, cfg);
  const double active_threads =
      static_cast<double>(blocks) * static_cast<double>(cfg.threads_per_block());
  const double active_warps = active_threads / dev.warp_size;
  return std::min(1.0, active_warps / dev.max_warps_per_sm());
}

std::vector<ResidencySlot> pack_residency(const DeviceProps& dev,
                                          const std::vector<ResidencyRequest>& reqs) {
  std::vector<ResidencySlot> out;
  pack_residency_into(dev, reqs, out);
  return out;
}

void pack_residency_into(const DeviceProps& dev,
                         const std::vector<ResidencyRequest>& reqs,
                         std::vector<ResidencySlot>& out) {
  out.resize(reqs.size());
  PackBudget budget(dev);
  double avg_per_sm = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const LaunchConfig& cfg = reqs[i].config;
    out[i] = pack_step(dev, budget, reqs[i].blocks_wanted,
                       static_cast<std::int64_t>(cfg.threads_per_block()),
                       static_cast<std::int64_t>(cfg.smem_per_block()),
                       avg_per_sm);
  }
}

double register_pressure(const DeviceProps& dev,
                         const std::vector<ResidencyRequest>& reqs,
                         const std::vector<ResidencySlot>& slots) {
  GLP_CHECK(reqs.size() == slots.size());
  double regs = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const double avg_per_sm =
        static_cast<double>(slots[i].resident_blocks) / dev.sm_count;
    regs += avg_per_sm * static_cast<double>(reqs[i].config.threads_per_block()) *
            reqs[i].config.regs_per_thread;
  }
  return regs / static_cast<double>(dev.registers_per_sm);
}

double register_slowdown(double pressure) {
  if (pressure <= 1.0) return 1.0;
  // Spilled accesses hit local memory; model a hyperbolic derating with a
  // floor — registers stay a soft constraint as in the paper (§3.2).
  return std::max(0.25, 1.0 / pressure);
}

}  // namespace gpusim
