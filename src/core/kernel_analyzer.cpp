#include "core/kernel_analyzer.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace glp4nn {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::uint64_t hash_str(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Kernel names are scope-qualified ("conv1/fwd/im2col_..."); strip the
// scope prefix so replicated layers ("conv1/fwd" vs "conv3/fwd") with
// identical kernels produce identical signatures.
std::uint64_t name_signature(const std::string& scope,
                             const std::string& name) {
  if (name.size() > scope.size() + 1 &&
      name.compare(0, scope.size(), scope) == 0 && name[scope.size()] == '/') {
    return hash_str(name.substr(scope.size() + 1));
  }
  return hash_str(name);
}

// Every numeric input the analytical model reads, plus the
// scope-relative kernel names. Duration fields use exact double bits:
// the memo must only fire when the solve would be identical.
std::vector<std::uint64_t> solve_signature(const ScopeProfile& profile) {
  std::vector<std::uint64_t> key;
  key.reserve(profile.kernels.size() * 12 + 1);
  key.push_back(profile.kernels.size());
  for (const KernelStats& k : profile.kernels) {
    key.push_back(name_signature(profile.scope, k.name));
    key.push_back(k.config.grid.x);
    key.push_back(k.config.grid.y);
    key.push_back(k.config.grid.z);
    key.push_back(k.config.block.x);
    key.push_back(k.config.block.y);
    key.push_back(k.config.block.z);
    key.push_back(static_cast<std::uint64_t>(k.config.regs_per_thread));
    key.push_back(k.config.smem_static_bytes);
    key.push_back(k.config.smem_dynamic_bytes);
    key.push_back(static_cast<std::uint64_t>(k.launches));
    key.push_back(bits_of(k.avg_duration_us));
  }
  return key;
}

}  // namespace

const ConcurrencyDecision& KernelAnalyzer::decide(const ScopeProfile& profile) {
  auto it = decisions_.find(profile.scope);
  if (it != decisions_.end()) return it->second;

  ConcurrencyDecision decision;
  std::vector<std::uint64_t> key = solve_signature(profile);
  auto memo = solve_memo_.find(key);
  if (memo != solve_memo_.end()) {
    // Relabel the memoized solve for this scope: the numeric inputs
    // are identical, so the decision is too. No analysis ran, so no
    // analysis time (and no B&B nodes) is charged.
    decision = memo->second;
    decision.scope = profile.scope;
    GLP_CHECK(decision.per_kernel.size() == profile.kernels.size());
    for (std::size_t i = 0; i < decision.per_kernel.size(); ++i) {
      decision.per_kernel[i].name = profile.kernels[i].name;
    }
    decision.analysis_ms = 0.0;
    ++solve_cache_hits_;
  } else {
    decision = model_.analyze(profile.scope, profile.kernels);
    ++solver_calls_;
    total_milp_nodes_ += static_cast<std::size_t>(decision.milp_nodes);
    solve_memo_.emplace(std::move(key), decision);
  }
  total_analysis_ms_ += decision.analysis_ms;
  auto [inserted, ok] = decisions_.emplace(profile.scope, std::move(decision));
  GLP_CHECK(ok);
  return inserted->second;
}

void KernelAnalyzer::decide_joint(
    const std::vector<const ScopeProfile*>& group) {
  GLP_REQUIRE(!group.empty(), "cannot jointly analyze an empty group");
  if (group.size() == 1) {
    decide(*group[0]);
    return;
  }
  for (const ScopeProfile* p : group) {
    GLP_REQUIRE(p != nullptr && !p->kernels.empty(),
                "joint analysis needs a non-empty profile per member");
  }

  // Memo key: member count, then each member's framed solve signature.
  std::vector<std::uint64_t> key;
  key.push_back(group.size());
  for (const ScopeProfile* p : group) {
    const std::vector<std::uint64_t> sig = solve_signature(*p);
    key.push_back(sig.size());
    key.insert(key.end(), sig.begin(), sig.end());
  }

  std::vector<ConcurrencyDecision> decisions;
  auto memo = joint_memo_.find(key);
  if (memo != joint_memo_.end()) {
    decisions = memo->second;
    for (ConcurrencyDecision& d : decisions) d.analysis_ms = 0.0;
    ++solve_cache_hits_;
  } else {
    // One solve over the union: every member's kernels compete for the
    // same per-SM thread/smem budgets and the one concurrency degree.
    std::vector<KernelStats> all;
    std::string joint_scope;
    for (const ScopeProfile* p : group) {
      all.insert(all.end(), p->kernels.begin(), p->kernels.end());
      joint_scope += (joint_scope.empty() ? "" : "+") + p->scope;
    }
    const ConcurrencyDecision joint = model_.analyze(joint_scope, all);
    ++solver_calls_;
    total_milp_nodes_ += static_cast<std::size_t>(joint.milp_nodes);

    const int cap = model_.props().max_concurrent_kernels;
    std::size_t offset = 0;
    for (std::size_t m = 0; m < group.size(); ++m) {
      const std::size_t count = group[m]->kernels.size();
      ConcurrencyDecision d;
      d.scope = group[m]->scope;
      d.per_kernel.assign(joint.per_kernel.begin() + offset,
                          joint.per_kernel.begin() + offset + count);
      int streams = 0;
      for (const KernelConcurrency& k : d.per_kernel) streams += k.count;
      d.stream_count = std::clamp(streams, 1, cap);
      d.objective = joint.objective;
      d.occupancy = joint.occupancy;
      // Whole-solve costs live on the first member so aggregates count
      // them exactly once.
      d.analysis_ms = m == 0 ? joint.analysis_ms : 0.0;
      d.milp_nodes = m == 0 ? joint.milp_nodes : 0;
      decisions.push_back(std::move(d));
      offset += count;
    }
    joint_memo_.emplace(std::move(key), decisions);
  }
  ++joint_solves_;

  // (Re)label with this group's concrete names and overwrite the cached
  // per-scope decisions — subsequent begin_scope calls use the joint
  // pool sizes.
  for (std::size_t m = 0; m < group.size(); ++m) {
    ConcurrencyDecision& d = decisions[m];
    d.scope = group[m]->scope;
    GLP_CHECK(d.per_kernel.size() == group[m]->kernels.size());
    for (std::size_t i = 0; i < d.per_kernel.size(); ++i) {
      d.per_kernel[i].name = group[m]->kernels[i].name;
    }
    total_analysis_ms_ += d.analysis_ms;
    decisions_[d.scope] = std::move(d);
  }
}

}  // namespace glp4nn
