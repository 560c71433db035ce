#include "core/glp4nn.hpp"

namespace glp4nn {

RuntimeScheduler& Glp4nnEngine::scheduler_for(scuda::Context& ctx) {
  auto it = devices_.find(&ctx);
  if (it == devices_.end()) {
    PerDevice d;
    d.analyzer =
        std::make_unique<KernelAnalyzer>(ctx.props(), options_.objective);
    d.scheduler = std::make_unique<RuntimeScheduler>(ctx, tracker_, *d.analyzer,
                                                     streams_, options_);
    it = devices_.emplace(&ctx, std::move(d)).first;
  }
  return *it->second.scheduler;
}

KernelAnalyzer* Glp4nnEngine::analyzer_for(const scuda::Context& ctx) {
  auto it = devices_.find(const_cast<scuda::Context*>(&ctx));
  return it == devices_.end() ? nullptr : it->second.analyzer.get();
}

FrameworkCosts Glp4nnEngine::costs() const {
  FrameworkCosts c;
  c.profiling_ms = tracker_.total_profiling_ms();
  c.mem_tt_bytes = tracker_.mem_tt_bytes();
  c.mem_k_bytes = tracker_.mem_k_bytes();
  c.mem_cupti_bytes = tracker_.mem_cupti_bytes();
  for (const auto& [ctx, device] : devices_) {
    c.analysis_ms += device.analyzer->total_analysis_ms();
    c.scheduling_ms += device.scheduler->scheduling_ms();
    c.solver_calls += device.analyzer->solver_calls();
    c.solve_cache_hits += device.analyzer->solve_cache_hits();
    c.milp_nodes += device.analyzer->total_milp_nodes();
  }
  return c;
}

}  // namespace glp4nn
