#pragma once
// Occupancy arithmetic shared by the simulator's block packer and the
// GLP4NN kernel analyzer. Implements the residency limits of the paper's
// Eqs. 4–5 and 8: threads per SM (τ_max), shared memory per SM (sm_max)
// and resident blocks per SM (β_max) are *hard* constraints; registers
// are a *soft* constraint (spilling slows execution but does not limit
// residency).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpusim/device_props.hpp"
#include "gpusim/types.hpp"

namespace gpusim {

/// static_cast<std::int64_t>(std::ceil(x)) for finite 0 ≤ x < 2^63, without
/// the libm call std::ceil is on x86-64 targets without SSE4.1. Exact: the
/// truncation is x's floor and converts back exactly (every double ≥ 2^52
/// is already integral).
inline std::int64_t ceil_nonneg(double x) {
  const auto t = static_cast<std::int64_t>(x);
  return static_cast<double>(t) < x ? t + 1 : t;
}

/// Residency demand of one kernel instance during packing.
struct ResidencyRequest {
  LaunchConfig config;
  std::uint64_t blocks_wanted = 0;  ///< blocks still to run (≤ grid size)
};

/// Result of packing one kernel onto an SM population.
struct ResidencySlot {
  int blocks_per_sm = 0;            ///< β_K: blocks co-resident per SM
  std::uint64_t resident_blocks = 0;  ///< total blocks resident device-wide
};

/// Maximum blocks of a *single* kernel that can be co-resident on one SM,
/// considering hard constraints only (Eq. 4, Eq. 5, β_max).
int max_blocks_per_sm_single(const DeviceProps& dev, const LaunchConfig& cfg);

/// Theoretical occupancy (Eq. 1) of running `cfg` alone at full residency:
/// active warps per SM / max warps per SM.
double single_kernel_occupancy(const DeviceProps& dev, const LaunchConfig& cfg);

/// Per-SM budget the greedy packer charges as it places requests. SMs are
/// homogeneous and blocks spread evenly, so one budget triple models
/// every SM.
struct PackBudget {
  std::int64_t threads_left = 0;
  std::int64_t smem_left = 0;
  std::int64_t blocks_left = 0;

  explicit PackBudget(const DeviceProps& dev)
      : threads_left(dev.max_threads_per_sm),
        smem_left(static_cast<std::int64_t>(dev.shared_mem_per_sm)),
        blocks_left(dev.max_blocks_per_sm) {}

  /// No request with at least one thread per block can place a block:
  /// every later pack_step yields an empty slot and leaves the budget as
  /// it is.
  bool exhausted() const { return threads_left == 0 || blocks_left == 0; }
};

/// One request's step of the greedy packer: place as many blocks per SM
/// as `blocks_wanted` (spread evenly) and the remaining budget allow,
/// charge the budget with the placement's average per-SM footprint, and
/// return the slot. `avg_per_sm` receives that footprint in blocks
/// (resident_blocks / sm_count), the figure register_pressure weighs.
inline ResidencySlot pack_step(const DeviceProps& dev, PackBudget& budget,
                               std::uint64_t blocks_wanted,
                               std::int64_t threads, std::int64_t smem,
                               double& avg_per_sm) {
  ResidencySlot out;
  avg_per_sm = 0.0;
  if (blocks_wanted == 0) return out;

  // Even spreading: a kernel with fewer blocks than SMs wants at most one
  // block per SM.
  const std::int64_t want_per_sm = static_cast<std::int64_t>(
      (blocks_wanted + dev.sm_count - 1) / dev.sm_count);

  std::int64_t fit = std::min<std::int64_t>(want_per_sm, budget.blocks_left);
  if (threads > 0) fit = std::min(fit, budget.threads_left / threads);
  if (smem > 0) fit = std::min(fit, budget.smem_left / smem);
  fit = std::max<std::int64_t>(fit, 0);

  out.blocks_per_sm = static_cast<int>(fit);
  out.resident_blocks = std::min<std::uint64_t>(
      blocks_wanted, static_cast<std::uint64_t>(fit) * dev.sm_count);

  // Charge the budget with the *average* per-SM footprint so kernels with
  // fewer blocks than SMs do not over-reserve capacity they cannot use.
  avg_per_sm = static_cast<double>(out.resident_blocks) / dev.sm_count;
  budget.threads_left -= ceil_nonneg(avg_per_sm * static_cast<double>(threads));
  budget.smem_left -= ceil_nonneg(avg_per_sm * static_cast<double>(smem));
  budget.blocks_left -= ceil_nonneg(avg_per_sm);
  budget.threads_left = std::max<std::int64_t>(budget.threads_left, 0);
  budget.smem_left = std::max<std::int64_t>(budget.smem_left, 0);
  budget.blocks_left = std::max<std::int64_t>(budget.blocks_left, 0);
  return out;
}

/// Greedy multi-kernel packer. Requests are served in order (admission
/// order in the engine; the fairness policy lives in the caller). Each
/// request receives as many blocks per SM as both its demand and the
/// remaining per-SM thread/smem/block budgets allow (one pack_step each).
///
/// Mirrors the paper's assumption that "thread blocks are assigned evenly
/// among all SMs" and that "blocks from different kernels can be placed on
/// the same SM if there are enough resources".
std::vector<ResidencySlot> pack_residency(const DeviceProps& dev,
                                          const std::vector<ResidencyRequest>& reqs);

/// Allocation-free variant for hot paths: packs into `out` (resized to
/// reqs.size(), prior contents discarded). `pack_residency` is a thin
/// wrapper over this, so both produce bit-identical results.
void pack_residency_into(const DeviceProps& dev,
                         const std::vector<ResidencyRequest>& reqs,
                         std::vector<ResidencySlot>& out);

/// Register pressure of a packing: total registers demanded per SM divided
/// by the register file size. Values > 1 indicate spilling; the engine
/// derates execution speed by `register_slowdown`.
double register_pressure(const DeviceProps& dev,
                         const std::vector<ResidencyRequest>& reqs,
                         const std::vector<ResidencySlot>& slots);

/// Execution-rate derating applied when registers oversubscribe
/// (soft constraint): 1.0 when pressure ≤ 1, smoothly degrading to a
/// floor of 0.25 under extreme spilling.
double register_slowdown(double pressure);

}  // namespace gpusim
