#pragma once
// Shared value types of the GLP4NN framework (Fig. 5 modules exchange
// these): parsed kernel statistics, scope profiles, concurrency
// decisions, and the cost accounting of §3.3.2.

#include <string>
#include <vector>

#include "gpusim/types.hpp"

namespace glp4nn {

/// One kernel *type* observed inside a profiled scope, as produced by the
/// kernel parser: launch configuration plus runtime statistics. This is
/// the model's "profiling input" column of Table 2 (#β_K, sm_K, τ_K, T_K).
struct KernelStats {
  std::string name;
  gpusim::LaunchConfig config;
  int launches = 0;               ///< times this kernel was launched in scope
  double avg_duration_us = 0.0;   ///< T_K
  double total_duration_us = 0.0;
};

/// Result of profiling one dispatch scope (e.g. "conv1/fwd").
struct ScopeProfile {
  std::string scope;
  std::vector<KernelStats> kernels;
  int total_launches = 0;
  double profiling_ms = 0.0;      ///< wall time spent collecting+parsing (T_p)
  std::size_t mem_tt_bytes = 0;   ///< timestamp storage for this scope
  std::size_t mem_k_bytes = 0;    ///< kernel-config storage for this scope
};

/// The analytical model's output for one kernel type (#K_i in Table 2).
struct KernelConcurrency {
  std::string name;
  int count = 1;        ///< #K_i — concurrent instances
  int upper_bound = 1;  ///< U_i from Eq. 7
  int beta_per_sm = 1;  ///< β_i from Eq. 8 (floored at 1)
};

/// The analyzer's decision for a scope: how many streams to give it.
struct ConcurrencyDecision {
  std::string scope;
  int stream_count = 1;  ///< C_out (Eq. 9), clamped to [1, C]
  std::vector<KernelConcurrency> per_kernel;
  /// The maximised objective: τ_total under Eq. 3, its duration-weighted
  /// sum under §6 (see glp4nn::Objective).
  double objective = 0.0;
  double occupancy = 0.0;    ///< OR_SM (Eqs. 1–2) of the solved Σ τ_K·β_K·#K
  double analysis_ms = 0.0;  ///< wall time of this analysis (T_a)
  int milp_nodes = 0;
};

/// Aggregate framework overheads (Table 6 and Fig. 10).
struct FrameworkCosts {
  double profiling_ms = 0.0;   ///< T_p
  double analysis_ms = 0.0;    ///< T_a
  double scheduling_ms = 0.0;  ///< T_s: steady scopes' pool, cut and fork
  std::size_t mem_tt_bytes = 0;
  std::size_t mem_k_bytes = 0;
  std::size_t mem_cupti_bytes = 0;

  // Analyzer solve accounting: fresh analytical solves, scopes served by
  // the cross-scope solve memo, and B&B nodes explored by fresh solves.
  std::size_t solver_calls = 0;
  std::size_t solve_cache_hits = 0;
  std::size_t milp_nodes = 0;

  double total_ms() const { return profiling_ms + analysis_ms + scheduling_ms; }
  std::size_t total_bytes() const {
    return mem_tt_bytes + mem_k_bytes + mem_cupti_bytes;
  }
};

}  // namespace glp4nn
