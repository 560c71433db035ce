#include "core/runtime_scheduler.hpp"

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "kernels/launcher.hpp"

namespace glp4nn {

namespace {

/// Dense transitive closure: reach[a][b] is true iff a == b or there is a
/// directed path a → b. Quadratic memory — DAGs here are layer graphs
/// (tens of nodes), not kernel graphs.
std::vector<std::vector<bool>> reachability(
    const std::vector<std::vector<int>>& deps) {
  // reach[a][b]: path a → b (b depends, transitively, on a). Nodes are in
  // topological order, so one forward sweep accumulating each node's
  // ancestor rows suffices.
  const std::size_t n = deps.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t b = 0; b < n; ++b) {
    reach[b][b] = true;
    for (int dep : deps[b]) {
      const auto a = static_cast<std::size_t>(dep);
      for (std::size_t r = 0; r <= a; ++r) {
        if (reach[r][a]) reach[r][b] = true;
      }
    }
  }
  return reach;
}

}  // namespace

RuntimeScheduler::RuntimeScheduler(scuda::Context& ctx, ResourceTracker& tracker,
                                   KernelAnalyzer& analyzer,
                                   StreamManager& streams,
                                   SchedulerOptions options)
    : ctx_(&ctx),
      tracker_(&tracker),
      analyzer_(&analyzer),
      streams_(&streams),
      options_(options) {
  GLP_REQUIRE(options_.max_streams >= 0 && options_.fixed_streams >= 0,
              "stream limits must be non-negative");
}

int RuntimeScheduler::clamp_streams(int requested) const {
  int s = requested;
  const int device_cap = ctx_->props().max_concurrent_kernels;
  s = std::min(s, device_cap);
  if (options_.max_streams > 0) s = std::min(s, options_.max_streams);
  if (options_.strict_repro) {
    // Largest power of two ≤ s that divides 32 (1, 2, 4, 8, 16, 32).
    int p = 1;
    while (p * 2 <= s && p * 2 <= 32) p *= 2;
    s = p;
  }
  return std::max(s, 1);
}

void RuntimeScheduler::fork_from_home() {
  // Fork: the scope's streams must observe everything already queued on
  // the op's / batch's home stream (the producer of its inputs). With
  // the default stream as home the legacy barrier already covers this.
  const gpusim::StreamId home = binding_.home_stream;
  if (home == gpusim::kDefaultStream) return;
  bool cross_stream = false;
  for (gpusim::StreamId s : pool_) cross_stream |= (s != home);
  if (!cross_stream) return;
  const gpusim::EventId ev = ctx_->device().record_event(home);
  for (gpusim::StreamId s : pool_) {
    if (s != home) ctx_->device().wait_event(s, ev);
  }
}

void RuntimeScheduler::begin_scope(const std::string& scope,
                                   std::size_t num_tasks) {
  GLP_REQUIRE(mode_ == Mode::kIdle, "dispatch scopes must not nest");
  current_scope_ = scope;
  current_tasks_ = num_tasks;
  current_state_ = &scopes_[scope];
  // W of the binding's slot slices: the clamped device concurrency split
  // evenly over its slots (see acquire_scope_pool).
  current_state_->slice_width = std::max(1, max_lanes() / binding_.num_slots);

  if (current_state_->serial) {
    // A fault degraded this scope to the serial baseline. It stays serial
    // *within its op or batch*: the binding's home stream, not the
    // device-wide default stream, keeps independent ops and other
    // tenants' batches overlapping with it.
    pool_.assign(1, binding_.home_stream);
    mode_ = Mode::kSteady;
  } else if (options_.fixed_streams > 0) {
    begin_steady(clamp_streams(options_.fixed_streams));
  } else if (const ConcurrencyDecision* decision = analyzer_->decision(scope)) {
    begin_steady(clamp_streams(decision->stream_count));
  } else {
    tracker_->begin_profiling(*ctx_);
    mode_ = Mode::kProfiling;
  }

  // Steady scopes stage their launches for lane coalescing; profiling
  // scopes stay launch-for-launch visible to the tracker.
  if (mode_ == Mode::kSteady && binding_.stager != nullptr) {
    GLP_CHECK(!binding_.stager->armed && binding_.stager->live == 0);
    binding_.stager->armed = true;
  }
}

void RuntimeScheduler::begin_steady(int count) {
  // T_s: the once-per-scope dispatch decision (pool, cut, fork); task_lane
  // is a modulo and reads no clock.
  const glp::WallTimer timer;
  pool_ = acquire_scope_pool(count);
  // Task i runs on lane i whenever the scope has no more tasks than the
  // pool has streams (round-robin and block-cyclic alike), so streams
  // past the last task would receive no work. Drop them after
  // acquisition, which keeps stream creation order unchanged, so the
  // fork below and the join in end_scope touch only lanes with tasks.
  pool_.resize(
      std::min(pool_.size(), std::max<std::size_t>(current_tasks_, 1)));
  // Lane 0 runs on the home stream itself: stream FIFO orders it against
  // the home's other work, so the fork and join below skip it.
  if (binding_.home_stream != gpusim::kDefaultStream) {
    pool_[0] = binding_.home_stream;
  }
  mode_ = Mode::kSteady;
  fork_from_home();
  scheduling_ms_ += timer.elapsed_ms();
}

std::vector<gpusim::StreamId> RuntimeScheduler::acquire_scope_pool(int count) {
  // Slice geometry is uniform across scopes: slot s always owns streams
  // [s*W, (s+1)*W) with W = clamped device concurrency / num_slots,
  // independent of this scope's analyzer decision. Decisions are
  // per-scope (op-, tenant- and batch-size-keyed), so deriving W from
  // `count` would let concurrently running ops or batches compute
  // different widths and hand out overlapping ranges; the decision only
  // shrinks how many of the slice's streams this scope uses. The
  // strict-repro clamp keeps that a divisor of 32 even after the slice
  // shrinks it, preserving the stream-stable gradient-slot order the
  // bit-exact contract relies on. Unbound (slot 0 of 1) this is the
  // pool's first `count` streams.
  const int width = current_state_->slice_width;
  const int used = clamp_streams(std::min(std::max(1, count), width));
  try {
    return streams_->acquire_slice(*ctx_, binding_.slot, width, used);
  } catch (const scuda::StreamCreateFailed&) {
    // Stream handles ran out (injected): degrade this scope to serial
    // dispatch permanently. Already-created pool streams stay in the
    // manager for scopes whose pools fit in them.
    current_state_->serial = true;
    return std::vector<gpusim::StreamId>(1, binding_.home_stream);
  }
}

kern::Lane RuntimeScheduler::task_lane(std::size_t index) {
  GLP_REQUIRE(mode_ != Mode::kIdle, "task_lane outside a scope");
  if (mode_ == Mode::kProfiling) {
    return kern::Lane{gpusim::kDefaultStream, 0};
  }
  std::size_t lane = 0;
  const std::size_t pool_size = pool_.size();
  switch (options_.policy) {
    case DispatchPolicy::kRoundRobin:
      lane = index % pool_size;
      break;
    case DispatchPolicy::kBlockCyclic: {
      const std::size_t block =
          (current_tasks_ + pool_size - 1) / pool_size;  // ceil
      lane = std::min(index / std::max<std::size_t>(block, 1), pool_size - 1);
      break;
    }
  }
  return kern::Lane{pool_[lane], static_cast<int>(lane)};
}

int RuntimeScheduler::max_lanes() const {
  return clamp_streams(ctx_->props().max_concurrent_kernels);
}

void RuntimeScheduler::end_scope() {
  GLP_REQUIRE(mode_ != Mode::kIdle, "end_scope without begin_scope");
  if (mode_ == Mode::kProfiling) {
    // Drain so every record of this scope is collected, then analyse.
    ctx_->device().synchronize();
    const ScopeProfile profile =
        tracker_->end_profiling(*ctx_, current_scope_);
    if (!profile.kernels.empty()) {
      const ConcurrencyDecision& decision = analyzer_->decide(profile);
      // Charge the one-time overhead to the simulated host clock so
      // end-to-end timings include it (Table 6). A non-negative option
      // pins the charge for deterministic-timeline runs.
      const double charge_ms =
          options_.overhead_charge_ms >= 0.0
              ? options_.overhead_charge_ms
              : profile.profiling_ms + decision.analysis_ms;
      ctx_->device().host_advance(charge_ms * gpusim::kMs);
      if (!binding_.concurrent_scopes.empty()) maybe_joint_decide(profile);
    } else if (current_tasks_ > 0) {
      // The scope ran tasks but the capture came back empty (profiler
      // record loss). Retry on the next encounter a bounded number of
      // times, then give up and serialise the scope — an undecided scope
      // must never profile forever.
      if (++current_state_->profile_attempts >= kMaxProfileAttempts) {
        current_state_->serial = true;
      }
    }
    // An empty scope (zero tasks) yields no decision; it will profile
    // again next time it runs non-empty.
  } else {
    if (kern::Stager* stager = binding_.stager) {
      // Flush before the join so it covers the merged launches.
      stager->armed = false;
      stager->flush(*ctx_, current_scope_ + "/coalesced");
    }
    if (binding_.home_stream != gpusim::kDefaultStream) {
      // Local join: the op's / batch's home stream waits for each pool
      // stream, keeping the barrier local to this op or batch — a
      // device-wide default-stream barrier would serialise concurrent
      // branches and tenants.
      const gpusim::StreamId home = binding_.home_stream;
      for (gpusim::StreamId s : pool_) {
        if (s == home) continue;
        const gpusim::EventId ev = ctx_->device().record_event(s);
        ctx_->device().wait_event(home, ev);
      }
    } else {
      // Asynchronous barrier: later work on any stream observes the scope.
      ctx_->device().record_event(gpusim::kDefaultStream);
    }
  }
  mode_ = Mode::kIdle;
  current_scope_.clear();
  current_state_ = nullptr;
}

void RuntimeScheduler::bind_dag_op(const kern::DagOpBinding& binding) {
  GLP_REQUIRE(mode_ == Mode::kIdle, "cannot bind mid-scope");
  GLP_REQUIRE(!bound_, "bindings must not nest");
  GLP_REQUIRE(binding.slot >= 0 && binding.num_slots >= 1 &&
                  binding.slot < binding.num_slots,
              "binding slot " << binding.slot << " outside [0, "
                              << binding.num_slots << ")");
  binding_ = binding;
  bound_ = true;
}

void RuntimeScheduler::clear_dag_op() {
  GLP_REQUIRE(mode_ == Mode::kIdle, "cannot clear a binding mid-scope");
  binding_ = kern::DagOpBinding{};
  bound_ = false;
}

void RuntimeScheduler::maybe_joint_decide(const ScopeProfile& profile) {
  dag_profiles_[profile.scope] = profile;
  // The op's concurrent group, in name order so the trigger is
  // independent of which member finished profiling last.
  std::set<std::string> members(binding_.concurrent_scopes.begin(),
                                binding_.concurrent_scopes.end());
  members.insert(profile.scope);
  std::vector<const ScopeProfile*> group;
  for (const std::string& scope : members) {
    auto it = dag_profiles_.find(scope);
    if (it == dag_profiles_.end()) return;  // a member has not profiled yet
    group.push_back(&it->second);
  }
  const std::vector<const ConcurrencyDecision*> joint =
      analyzer_->decide_joint(group);
  ++dag_joint_groups_;
  // Charge the joint analysis to the simulated host clock like the solo
  // analysis above (pinned charge keeps deterministic timelines). The
  // whole-solve cost lives on the group's first member.
  const double charge_ms = options_.overhead_charge_ms >= 0.0
                               ? options_.overhead_charge_ms
                               : joint.front()->analysis_ms;
  ctx_->device().host_advance(charge_ms * gpusim::kMs);
}

std::vector<kern::DagPlacement> RuntimeScheduler::plan_dag(
    const std::vector<kern::DagOp>& ops) {
  GLP_REQUIRE(mode_ == Mode::kIdle, "cannot plan a DAG mid-scope");
  const std::size_t n = ops.size();
  std::vector<kern::DagPlacement> placements(n);
  if (n == 0) return placements;

  std::vector<std::vector<int>> deps(n);
  for (std::size_t i = 0; i < n; ++i) {
    deps[i] = ops[i].deps;
    std::sort(deps[i].begin(), deps[i].end());
    for (int dep : deps[i]) {
      GLP_REQUIRE(dep >= 0 && static_cast<std::size_t>(dep) < i,
                  "op " << i << " depends on unknown/later op " << dep);
    }
  }

  // 1. Chain decomposition: an op joins its highest-indexed dependency's
  // chain when it is the first op to extend it (same-chain edges ride
  // stream FIFO for free); otherwise it opens a new chain.
  std::vector<int> chain_of(n, 0);
  std::vector<int> chain_tail;  // last op appended to each chain
  for (std::size_t i = 0; i < n; ++i) {
    int chain = -1;
    if (!deps[i].empty()) {
      const int last = deps[i].back();
      const int c = chain_of[static_cast<std::size_t>(last)];
      if (chain_tail[static_cast<std::size_t>(c)] == last) chain = c;
    }
    if (chain < 0) {
      chain = static_cast<int>(chain_tail.size());
      chain_tail.push_back(static_cast<int>(i));
    } else {
      chain_tail[static_cast<std::size_t>(chain)] = static_cast<int>(i);
    }
    chain_of[i] = chain;
  }
  const int num_chains = static_cast<int>(chain_tail.size());

  // 2. Which chains can overlap in time? Two ops are concurrent iff
  // neither reaches the other; two chains conflict iff any of their ops
  // are concurrent.
  const std::vector<std::vector<bool>> reach = reachability(deps);
  std::vector<std::vector<int>> chain_ops(
      static_cast<std::size_t>(num_chains));
  for (std::size_t i = 0; i < n; ++i) {
    chain_ops[static_cast<std::size_t>(chain_of[i])].push_back(
        static_cast<int>(i));
  }
  const auto concurrent = [&reach](int a, int b) {
    const auto ua = static_cast<std::size_t>(a);
    const auto ub = static_cast<std::size_t>(b);
    return !reach[ua][ub] && !reach[ub][ua];
  };
  std::vector<std::vector<bool>> chain_conflict(
      static_cast<std::size_t>(num_chains),
      std::vector<bool>(static_cast<std::size_t>(num_chains), false));
  for (int a = 0; a < num_chains; ++a) {
    for (int b = a + 1; b < num_chains; ++b) {
      bool conflict = false;
      for (int x : chain_ops[static_cast<std::size_t>(a)]) {
        for (int y : chain_ops[static_cast<std::size_t>(b)]) {
          conflict = conflict || concurrent(x, y);
        }
      }
      chain_conflict[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          conflict;
      chain_conflict[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] =
          conflict;
    }
  }

  // 3. Greedy coloring of the chain-conflict graph → slot per chain.
  // Chains that never overlap may share a slot (and its stream slice).
  std::vector<int> slot_of(static_cast<std::size_t>(num_chains), -1);
  int num_slots = 0;
  for (int c = 0; c < num_chains; ++c) {
    std::vector<bool> taken(static_cast<std::size_t>(num_chains), false);
    for (int other = 0; other < c; ++other) {
      if (chain_conflict[static_cast<std::size_t>(c)]
                        [static_cast<std::size_t>(other)]) {
        taken[static_cast<std::size_t>(slot_of[static_cast<std::size_t>(
            other)])] = true;
      }
    }
    int slot = 0;
    while (taken[static_cast<std::size_t>(slot)]) ++slot;
    slot_of[static_cast<std::size_t>(c)] = slot;
    num_slots = std::max(num_slots, slot + 1);
  }

  // 4. Home stream per chain: the first stream of its slot's slice. A
  // stream-creation fault degrades the chain to the default stream —
  // always ordering-safe (the host issues ops in topological order and
  // the default stream is a two-sided barrier).
  const int slice_width = std::max(1, max_lanes() / std::max(1, num_slots));
  std::vector<gpusim::StreamId> chain_home(
      static_cast<std::size_t>(num_chains), gpusim::kDefaultStream);
  for (int c = 0; c < num_chains; ++c) {
    const int slot = slot_of[static_cast<std::size_t>(c)];
    try {
      chain_home[static_cast<std::size_t>(c)] =
          streams_->acquire_slice(*ctx_, slot, slice_width, 1)[0];
    } catch (const scuda::StreamCreateFailed&) {
      chain_home[static_cast<std::size_t>(c)] = gpusim::kDefaultStream;
    }
  }

  // 5. Emit placements; scope ops additionally learn which other scopes
  // can run concurrently with them (the analyzer's joint groups).
  for (std::size_t i = 0; i < n; ++i) {
    kern::DagPlacement& p = placements[i];
    p.chain = chain_of[i];
    p.slot = slot_of[static_cast<std::size_t>(chain_of[i])];
    p.num_slots = num_slots;
    p.stream = chain_home[static_cast<std::size_t>(chain_of[i])];
    if (ops[i].scope.empty()) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || ops[j].scope.empty()) continue;
      if (concurrent(static_cast<int>(i), static_cast<int>(j))) {
        p.concurrent_scopes.push_back(ops[j].scope);
      }
    }
    std::sort(p.concurrent_scopes.begin(), p.concurrent_scopes.end());
    p.concurrent_scopes.erase(
        std::unique(p.concurrent_scopes.begin(), p.concurrent_scopes.end()),
        p.concurrent_scopes.end());
  }
  return placements;
}

std::size_t RuntimeScheduler::serial_fallback_count() const {
  return static_cast<std::size_t>(
      std::count_if(scopes_.begin(), scopes_.end(),
                    [](const auto& entry) { return entry.second.serial; }));
}

int RuntimeScheduler::stream_count(const std::string& scope) const {
  const auto it = scopes_.find(scope);
  if (it != scopes_.end() && it->second.serial) return 1;
  int count = options_.fixed_streams;
  if (count == 0) {
    const ConcurrencyDecision* decision = analyzer_->decision(scope);
    if (decision == nullptr) return 0;
    count = decision->stream_count;
  }
  // What acquire_scope_pool hands the scope: the count cut to its slot
  // slice (a scope that has not run yet counts as unbound).
  const int width = it != scopes_.end() ? it->second.slice_width
                                        : max_lanes();
  return clamp_streams(std::min(std::max(1, count), width));
}

}  // namespace glp4nn
