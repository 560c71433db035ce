#include "core/analytical_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "milp/branch_and_bound.hpp"

namespace glp4nn {

int AnalyticalModel::beta_per_sm(const KernelStats& k) const {
  const auto blocks = k.config.total_blocks();
  const int beta = static_cast<int>(blocks / static_cast<std::uint64_t>(props_.sm_count));
  return std::max(beta, 1);
}

int AnalyticalModel::upper_bound(const KernelStats& k) const {
  const double threads = static_cast<double>(k.config.threads_per_block());
  const double blocks = static_cast<double>(k.config.total_blocks());
  const double smem = static_cast<double>(k.config.smem_per_block());

  // Launch-rate bound: a single dispatch thread issues one launch per
  // T_launch, so at most ceil(T_K / T_launch) instances can overlap.
  const double t_launch = props_.kernel_launch_overhead_us;
  double bound = std::ceil(k.avg_duration_us / std::max(t_launch, 1e-9));

  // Thread capacity bound: τ_max·#SM / (τ_K·#β_K).
  const double thread_bound =
      (static_cast<double>(props_.max_threads_per_sm) * props_.sm_count) /
      (threads * blocks);
  bound = std::min(bound, thread_bound);

  // Shared-memory capacity bound: sm_max·#SM / (sm_K·#β_K).
  if (smem > 0.0) {
    const double smem_bound =
        (static_cast<double>(props_.shared_mem_per_sm) * props_.sm_count) /
        (smem * blocks);
    bound = std::min(bound, smem_bound);
  }

  const int result = static_cast<int>(std::floor(bound));
  return std::clamp(result, 1, props_.max_concurrent_kernels);
}

ConcurrencyDecision AnalyticalModel::analyze(
    const std::string& scope, const std::vector<KernelStats>& kernels) const {
  GLP_REQUIRE(!kernels.empty(), "cannot analyze an empty kernel set");
  glp::WallTimer timer;

  milp::Problem problem;
  problem.set_maximize(true);

  // ΣT_K for the §6 weights; it stays 0 under Eq. 3, so every weight is 1.
  double total_duration = 0.0;
  if (objective_ == Objective::kDurationWeighted) {
    for (const KernelStats& k : kernels) total_duration += k.avg_duration_us;
  }

  std::vector<int> betas;
  std::vector<int> bounds;
  betas.reserve(kernels.size());
  bounds.reserve(kernels.size());

  std::vector<std::pair<int, double>> smem_terms;
  std::vector<std::pair<int, double>> thread_terms;
  std::vector<std::pair<int, double>> degree_terms;

  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelStats& k = kernels[i];
    const int beta = beta_per_sm(k);
    const int ub = upper_bound(k);
    betas.push_back(beta);
    bounds.push_back(ub);

    const double tau = static_cast<double>(k.config.threads_per_block());
    const double smem = static_cast<double>(k.config.smem_per_block());
    // Objective (Eq. 3): τ_total = Σ τ_K·β_K·#K — maximise active threads.
    // The §6 variant weights each term by the kernel's share of the
    // scope's time, T_K / ΣT_K.
    const double weight = total_duration > 0.0
                              ? k.avg_duration_us / total_duration
                              : 1.0;
    const int var = problem.add_variable(0.0, static_cast<double>(ub),
                                         weight * tau * beta,
                                         /*integer=*/true, k.name);
    thread_terms.emplace_back(var, tau * beta);
    if (smem > 0.0) smem_terms.emplace_back(var, smem * beta);
    degree_terms.emplace_back(var, 1.0);
  }

  // Eq. 5: Σ τ_K·β_K·#K ≤ τ_max.
  problem.add_constraint(thread_terms, 0.0,
                         static_cast<double>(props_.max_threads_per_sm),
                         "threads_per_sm");
  // Eq. 4: Σ sm_K·β_K·#K ≤ sm_max.
  if (!smem_terms.empty()) {
    problem.add_constraint(smem_terms, 0.0,
                           static_cast<double>(props_.shared_mem_per_sm),
                           "smem_per_sm");
  }
  // Eq. 6: 1 ≤ Σ #K ≤ C.
  problem.add_constraint(degree_terms, 1.0,
                         static_cast<double>(props_.max_concurrent_kernels),
                         "concurrency_degree");

  const milp::BranchAndBoundSolver solver;
  const milp::Solution solution = solver.solve(problem);

  ConcurrencyDecision decision;
  decision.scope = scope;
  decision.milp_nodes = solver.last_node_count();

  if (solution.status != milp::SolveStatus::kOptimal) {
    // Infeasible models exist: a kernel whose τ_K·β_K alone exceeds τ_max
    // makes Eq. 5 unsatisfiable together with Eq. 6's Σ#K ≥ 1. Such a
    // kernel already saturates the device, so the right answer is serial
    // execution — fall back to one stream.
    decision.stream_count = 1;
    decision.objective = 0.0;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      decision.per_kernel.push_back(
          KernelConcurrency{kernels[i].name, 1, bounds[i], betas[i]});
    }
    decision.analysis_ms = timer.elapsed_ms();
    return decision;
  }

  decision.objective = solution.objective;

  int total = 0;
  double threads = 0.0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    KernelConcurrency kc;
    kc.name = kernels[i].name;
    kc.count = static_cast<int>(std::lround(solution.values[i]));
    kc.upper_bound = bounds[i];
    kc.beta_per_sm = betas[i];
    total += kc.count;
    threads += thread_terms[i].second * kc.count;
    decision.per_kernel.push_back(std::move(kc));
  }
  // Eq. 9: the stream pool size is the total concurrent kernel count.
  decision.stream_count =
      std::clamp(total, 1, props_.max_concurrent_kernels);

  // Eqs. 1–2: occupancy of the solved thread total Σ τ_K·β_K·#K, which
  // under Eq. 3 is the objective itself.
  const double active_warps = threads / props_.warp_size;
  decision.occupancy =
      std::min(1.0, active_warps / static_cast<double>(props_.max_warps_per_sm()));

  decision.analysis_ms = timer.elapsed_ms();
  return decision;
}

}  // namespace glp4nn
