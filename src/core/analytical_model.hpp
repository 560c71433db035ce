#pragma once
// The paper's analytical model (§3.2, Eqs. 1–9): given the kernel types
// of a scope and the device's limits, choose how many instances of each
// kernel (#K_i) to run concurrently so SM occupancy (Eq. 1) is maximised
// under the hard constraints — shared memory per SM (Eq. 4), threads per
// SM (Eq. 5) and the device concurrency degree (Eq. 6) — with per-kernel
// upper bounds from Eq. 7. Registers are a soft constraint and excluded,
// exactly as in the paper. The resulting bounded integer program is
// solved with the in-repo branch-and-bound MILP solver (the paper used
// GLPK). The objective is a construction parameter (see Objective).

#include "core/types.hpp"
#include "gpusim/device_props.hpp"

namespace glp4nn {

/// What the model maximises over the same constraints (Eqs. 4–7).
enum class Objective {
  /// Eq. 3: τ_total = Σ τ_K·β_K·#K, the active threads per SM.
  kThreads,
  /// Paper §6 ("improve the analytical model"): each kernel's τ_K·β_K
  /// scaled by T_K / ΣT_K, its share of the scope's time — long kernels
  /// dominate a scope's makespan, so their overlap matters more than
  /// that of sub-launch-gap kernels.
  kDurationWeighted,
};

class AnalyticalModel {
 public:
  explicit AnalyticalModel(gpusim::DeviceProps props,
                           Objective objective = Objective::kThreads)
      : props_(std::move(props)), objective_(objective) {}

  const gpusim::DeviceProps& props() const { return props_; }

  /// Solve the model for one scope's kernel set. Also measures T_a.
  ConcurrencyDecision analyze(const std::string& scope,
                              const std::vector<KernelStats>& kernels) const;

  /// Eq. 8 — blocks per SM for kernel K, floored at 1 (a kernel with
  /// fewer blocks than SMs still occupies one block somewhere; the
  /// paper's floor would zero its contribution).
  int beta_per_sm(const KernelStats& k) const;

  /// Eq. 7 — upper bound on #K_i: min of the launch-rate bound
  /// ceil(T_K / T_launch) and the thread / shared-memory capacity bounds.
  int upper_bound(const KernelStats& k) const;

 private:
  gpusim::DeviceProps props_;
  Objective objective_;
};

}  // namespace glp4nn
