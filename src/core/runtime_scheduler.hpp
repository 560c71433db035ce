#pragma once
// Runtime scheduler (paper §3.1, workflow in Fig. 6): the per-device
// module that drives everything. Implements kern::KernelDispatcher so a
// Net can be switched from naive-Caffe to GLP4NN by swapping the
// dispatcher.
//
// Per scope (e.g. "conv1/fwd"):
//   first encounter — PROFILE: route every task to the default stream with
//     the resource tracker capturing kernel activity; at end_scope, drain
//     the device, parse, run the kernel analyzer (analytical model), cache
//     the decision, and size the stream pool. The one-time T_p + T_a wall
//     cost is charged to the simulated host clock, so end-to-end timings
//     include GLP4NN's overhead (Table 6 honesty).
//   afterwards — STEADY: round-robin tasks over the scope's stream pool,
//     cut to the lanes that receive a task (a scope of n < P tasks uses
//     pool streams 0..n-1; the rest are still created, in the same order,
//     but get no work). end_scope posts an asynchronous default-stream
//     barrier, or, under a binding with a home stream, joins each used
//     lane back to that home stream (which begin_scope forked them from).
//     Under such a binding lane 0 runs on the home stream itself, so only
//     lanes 1..n-1 fork and join and a one-task scope makes no event call
//     (a DAG op's home already is its slice's stream 0; a serving slot's
//     home replaces it).
//
// One ambient context, kern::DagOpBinding, routes scopes: the DAG op or
// serving batch being issued binds its home stream and its slot of
// num_slots, and every pool is that slot's slice of the shared stream
// pool (unbound: the default stream and slot 0 of 1, i.e. the pool's
// first streams). A binding may also carry a kern::Stager: every steady
// scope under it (analyzer pool, fixed pool or fault-serialised) stages
// its launches there, and end_scope flushes them before the join as one
// launch per lane stream (`<scope>/coalescedN` when it merges N).
// Profiling scopes never stage, so the tracker sees every kernel.
//
// Options cover the ablations DESIGN.md lists: dispatch policy, a stream
// cap, strict-repro pool rounding (bit-identical training), the analytical
// model's objective (Eq. 3 or §6's duration weighting), and a fixed pool
// size that bypasses the model (the Fig. 2/4 manual baseline; every
// fixed-size pool in the repository runs on this scheduler).

#include <map>
#include <string>

#include "core/kernel_analyzer.hpp"
#include "core/resource_tracker.hpp"
#include "core/stream_manager.hpp"
#include "kernels/dispatch.hpp"

namespace glp4nn {

enum class DispatchPolicy {
  kRoundRobin,   ///< task i → stream (i mod S) — the paper's policy
  kBlockCyclic,  ///< contiguous blocks of tasks per stream (ablation)
};

struct SchedulerOptions {
  DispatchPolicy policy = DispatchPolicy::kRoundRobin;
  /// Cap on the analyzer's stream count (0 = device concurrency degree).
  int max_streams = 0;
  /// Round pool sizes down to a divisor of 32 so gradient-slot order is
  /// stream-stable → bit-identical training vs the serial baseline
  /// (extension; see ConvolutionLayer docs).
  bool strict_repro = false;
  /// Skip profiling/analysis and always use this many streams (manual
  /// baseline for Figs. 2 and 4; 0 = disabled).
  int fixed_streams = 0;
  /// What the analytical model maximises: the paper's Eq. 3 (default) or
  /// the §6 duration-weighted variant. Both keep the solve memo and the
  /// DAG joint solves.
  Objective objective = Objective::kThreads;
  /// One-time scope overhead charged to the simulated host clock after
  /// each profiling analysis. Negative (default) charges the *measured*
  /// wall time (T_p + T_a, the honest Table 6 accounting) — which makes
  /// absolute simulated timestamps vary run to run with machine speed.
  /// Set >= 0 to charge this fixed amount instead, making the simulated
  /// timeline fully deterministic (the engine-equivalence harness relies
  /// on this to compare timelines bit for bit).
  double overhead_charge_ms = -1.0;
};

class RuntimeScheduler final : public kern::KernelDispatcher {
 public:
  RuntimeScheduler(scuda::Context& ctx, ResourceTracker& tracker,
                   KernelAnalyzer& analyzer, StreamManager& streams,
                   SchedulerOptions options = {});

  // --- kern::KernelDispatcher ------------------------------------------------
  void begin_scope(const std::string& scope, std::size_t num_tasks) override;
  kern::Lane task_lane(std::size_t index) override;
  int max_lanes() const override;
  void end_scope() override;

  // --- inter-operator DAG scheduling ---------------------------------------
  /// Plan a whole op DAG onto concurrent stream chains: ops inherit their
  /// last dependency's chain when possible (same-stream edges are free),
  /// chains that may overlap in time are colored onto disjoint stream-pool
  /// slices, and each scope op learns which other scopes can run
  /// concurrently with it (feeds the analyzer's joint resource model).
  std::vector<kern::DagPlacement> plan_dag(
      const std::vector<kern::DagOp>& ops) override;
  /// Route the next issued op's or serving batch's scopes: fork/join
  /// against the binding's home stream (instead of the device-wide default
  /// barrier) and expand pools only within its slot slice. Only the slice
  /// streams that receive a task are forked and joined. Steady scopes arm
  /// the binding's stager, if any. Bindings must not nest: a second bind
  /// before clear_dag_op() throws, as a nested begin_scope does.
  void bind_dag_op(const kern::DagOpBinding& binding) override;
  void clear_dag_op() override;
  /// Concurrent scope groups that completed a joint analyzer solve.
  std::size_t dag_joint_groups() const { return dag_joint_groups_; }

  // --- introspection -----------------------------------------------------------
  /// Streams the scope's pool holds (0 if not yet decided): the fixed or
  /// decided count, cut to the slot slice of the binding the scope last
  /// ran under, as acquire_scope_pool hands it out.
  int stream_count(const std::string& scope) const;
  const KernelAnalyzer& analyzer() const { return *analyzer_; }
  KernelAnalyzer& analyzer() { return *analyzer_; }
  const SchedulerOptions& options() const { return options_; }
  scuda::Context& context() { return *ctx_; }

  /// Wall-clock scheduling cost (the paper's T_s): pool acquisition, cut
  /// and fork of every analyzer- or fixed-pool steady scope, timed once
  /// per scope. task_lane's per-task modulo is not timed.
  double scheduling_ms() const { return scheduling_ms_; }

  /// Effective pool size after the option clamps (exposed for tests).
  int clamp_streams(int requested) const;

  // --- fault degradation ---------------------------------------------------
  // Injected runtime faults never abort training; they shrink the scope
  // back to the serial baseline:
  //  * stream-creation failure while sizing a pool → the scope runs on
  //    its binding's home stream (unbound: the default stream) from then
  //    on;
  //  * profiler-capture loss → the scope is re-profiled on its next run,
  //    and after kMaxProfileAttempts empty captures it is serialised
  //    instead of profiling forever.

  /// True when a fault permanently degraded `scope` to serial dispatch.
  bool scope_serialized(const std::string& scope) const {
    const auto it = scopes_.find(scope);
    return it != scopes_.end() && it->second.serial;
  }
  /// Number of scopes degraded to serial dispatch by injected faults.
  std::size_t serial_fallback_count() const;

  /// Empty profiling captures tolerated before a scope is serialised.
  static constexpr int kMaxProfileAttempts = 3;

 private:
  /// Enter steady mode on a pool of `count` streams, cut to the lanes
  /// the scope's tasks use, and fork those lanes from the home stream.
  void begin_steady(int count);
  /// Pool of up to `count` streams for the current scope: its binding's
  /// slot slice. Degrades the scope to serial dispatch on the binding's
  /// home stream when stream creation fails (injected fault).
  std::vector<gpusim::StreamId> acquire_scope_pool(int count);
  /// Make the scope's pool observe work already queued on the binding's
  /// home stream (begin_scope) — the fork half of the op/batch-local
  /// barrier.
  void fork_from_home();
  /// After a profiling end_scope under a binding with concurrent scopes:
  /// stash the profile and, once every member of the op's concurrent
  /// group has one, run the analyzer's joint solve and charge its cost.
  void maybe_joint_decide(const ScopeProfile& profile);

  scuda::Context* ctx_;
  ResourceTracker* tracker_;
  KernelAnalyzer* analyzer_;
  StreamManager* streams_;
  SchedulerOptions options_;

  /// What the scheduler remembers about one scope across encounters.
  struct ScopeState {
    bool serial = false;       ///< a fault degraded it to serial dispatch
    int profile_attempts = 0;  ///< empty profiling captures so far
    int slice_width = 0;       ///< slice width of the binding it last ran under
  };

  enum class Mode { kIdle, kProfiling, kSteady };
  Mode mode_ = Mode::kIdle;
  std::string current_scope_;
  ScopeState* current_state_ = nullptr;  ///< scopes_ entry of the open scope
  std::size_t current_tasks_ = 0;
  std::vector<gpusim::StreamId> pool_;
  double scheduling_ms_ = 0.0;
  std::map<std::string, ScopeState> scopes_;
  kern::DagOpBinding binding_;  ///< default: default-stream home, slot 0 of 1
  bool bound_ = false;          ///< bind_dag_op ran and clear_dag_op has not
  /// Profiles stashed for concurrent-group members awaiting a joint solve.
  std::map<std::string, ScopeProfile> dag_profiles_;
  std::size_t dag_joint_groups_ = 0;
};

}  // namespace glp4nn
