#pragma once
// Kernel analyzer module (Fig. 5): the *concurrency analyzer* runs the
// analytical model under the objective it was built with (Eq. 3 or the
// §6 duration weighting; one analyzer keeps one for life), and the
// *concurrency maintainer* caches decisions per scope so each layer is
// analysed exactly once per device.
//
// On top of the per-scope decision cache, solves are memoized across
// scopes: two scopes whose kernel-stat signatures match (same per-kernel
// launch configs, launch counts and duration bits, scope-relative names)
// share one analytical solve — the branch-and-bound runs once and the
// decision is relabelled for the new scope. Replicated layers (conv
// towers, stacked blocks) hit this constantly.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/analytical_model.hpp"

namespace glp4nn {

class KernelAnalyzer {
 public:
  explicit KernelAnalyzer(gpusim::DeviceProps props,
                          Objective objective = Objective::kThreads)
      : model_(std::move(props), objective) {}

  /// Analyze (or fetch the cached decision for) a profiled scope.
  const ConcurrencyDecision& decide(const ScopeProfile& profile);

  /// Joint solve for scopes that run *concurrently* on one device (DAG
  /// scheduling of independent operators): the union of every member's
  /// kernels enters ONE analytical solve, so the shared thread / shared-
  /// memory / concurrency-degree budgets (Eqs. 4–6) are split across the
  /// whole concurrent set instead of being granted to each scope in full.
  /// Each member's stream count becomes the clamped sum of its own
  /// kernels' solved instance counts, and its cached per-scope decision
  /// is *overwritten* with the joint one (later begin_scope calls pick it
  /// up). Joint solves are memoized by the concatenation of the members'
  /// solve signatures. Requires ≥ 1 member; with exactly one member this
  /// degenerates to decide().
  void decide_joint(const std::vector<const ScopeProfile*>& group);

  /// Joint concurrent-set solves actually run (fresh or memoized).
  std::size_t joint_solves() const { return joint_solves_; }

  const ConcurrencyDecision* decision(const std::string& scope) const {
    auto it = decisions_.find(scope);
    return it == decisions_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, ConcurrencyDecision>& decisions() const {
    return decisions_;
  }
  double total_analysis_ms() const { return total_analysis_ms_; }

  /// Fresh analytical-model solves actually run.
  std::size_t solver_calls() const { return solver_calls_; }
  /// Scopes answered by relabelling a memoized solve instead.
  std::size_t solve_cache_hits() const { return solve_cache_hits_; }
  /// Branch-and-bound nodes explored across all fresh solves.
  std::size_t total_milp_nodes() const { return total_milp_nodes_; }

 private:
  AnalyticalModel model_;
  std::map<std::string, ConcurrencyDecision> decisions_;
  /// Cross-scope solve memo: kernel-stat signature → solved decision. The
  /// signature holds every input either objective reads (the T_K bits
  /// included), and the objective is fixed for the analyzer's life.
  std::map<std::vector<std::uint64_t>, ConcurrencyDecision> solve_memo_;
  /// Joint-solve memo: framed member signatures → per-member decisions.
  std::map<std::vector<std::uint64_t>, std::vector<ConcurrencyDecision>>
      joint_memo_;
  double total_analysis_ms_ = 0.0;
  std::size_t solver_calls_ = 0;
  std::size_t solve_cache_hits_ = 0;
  std::size_t total_milp_nodes_ = 0;
  std::size_t joint_solves_ = 0;
};

}  // namespace glp4nn
