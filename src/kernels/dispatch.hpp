#pragma once
// Kernel-dispatch abstraction. A layer that exposes batch-level
// parallelism (the per-sample loop of Algorithms 1 and 2 in the paper)
// wraps each iteration's kernel chain in a *task* and asks the dispatcher
// which stream to run it on:
//
//   dispatcher.begin_scope("conv1/fwd", batch_size);
//   for n in batch: launch chain on dispatcher.task_lane(n).stream
//   dispatcher.end_scope();   // async barrier on the default stream
//
// Implementations:
//  * SerialDispatcher — everything on the default stream (naive Caffe).
//  * glp4nn::RuntimeScheduler (src/core) — the paper's contribution:
//    profiles the scope once, sizes the pool with the analytical model,
//    then round-robins. Its `fixed_streams` option pins the pool size
//    instead (the manual multi-stream baseline of Figs. 2 and 4).

#include <string>
#include <vector>

#include "simcuda/context.hpp"

namespace kern {

struct Stager;

/// Execution mode for kernel host functors.
enum class ComputeMode {
  kNumeric,     ///< run the real math (convergence experiments, tests)
  kTimingOnly,  ///< skip math; only simulate timing (large-scale benches)
};

/// Where a task's kernels should run. `lane` indexes per-concurrency
/// workspaces (two tasks with the same lane are guaranteed to execute in
/// submission order, so they may share scratch buffers).
struct Lane {
  gpusim::StreamId stream = gpusim::kDefaultStream;
  int lane = 0;
};

/// One node of an inter-operator dependency DAG handed to plan_dag().
/// Ops are listed in the order the host will issue them (a topological
/// order by construction); `deps` reference earlier ops only.
struct DagOp {
  /// Dispatch-scope name the op will open ("" for ops that launch their
  /// kernels directly, e.g. whole-batch elementwise layers). Used by
  /// DAG-aware schedulers to plan concurrent scope groups.
  std::string scope;
  std::vector<int> deps;
};

/// Where plan_dag() placed one op. `chain` groups ops that share a home
/// stream (same-chain edges are free — stream FIFO covers them); `slot`
/// and `num_slots` describe the stream-pool slice the op's scope may
/// expand into without colliding with concurrently running scopes.
struct DagPlacement {
  gpusim::StreamId stream = gpusim::kDefaultStream;
  int chain = 0;
  int slot = 0;
  int num_slots = 1;
  /// Scope names of other ops that may execute concurrently with this
  /// one (neither reaches the other in the DAG). Empty for non-scope ops
  /// and under serial planning.
  std::vector<std::string> concurrent_scopes;
};

/// Ambient binding for the DAG op or serving batch the host is about to
/// issue. Set with bind_dag_op() before its launches, cleared with
/// clear_dag_op() after: scoped layers then fork from / join to
/// `home_stream` instead of the device-wide default barrier, and expand
/// into slot-sliced pools.
struct DagOpBinding {
  gpusim::StreamId home_stream = gpusim::kDefaultStream;
  int slot = 0;
  int num_slots = 1;
  /// Scope names of ops that may run concurrently with this one (used by
  /// DAG-aware schedulers to size heterogeneous concurrent pools jointly).
  std::vector<std::string> concurrent_scopes;
  /// Lane coalescing: a scheduler that runs one of the binding's scopes
  /// steady arms this stager for the scope and flushes it at end_scope,
  /// before the join, as one launch per lane stream (`<scope>/coalescedN`
  /// when it merges N). The scope's launchers must hold the same stager
  /// (ExecContext::stager).
  Stager* stager = nullptr;
};

class KernelDispatcher {
 public:
  virtual ~KernelDispatcher() = default;

  /// Open a parallelizable scope with `num_tasks` independent tasks.
  /// Scopes must not nest.
  virtual void begin_scope(const std::string& scope, std::size_t num_tasks) = 0;

  /// Lane for task `index` (0-based) of the current scope.
  virtual Lane task_lane(std::size_t index) = 0;

  /// Upper bound on distinct lanes this dispatcher will ever return
  /// (valid outside scopes; used to size per-lane workspaces).
  virtual int max_lanes() const = 0;

  /// Close the scope, enforcing that later work (on any stream) observes
  /// all of the scope's kernels. Asynchronous — no host round trip.
  virtual void end_scope() = 0;

  /// No in-tree caller: lane coalescing is armed through
  /// DagOpBinding::stager. Kept only because glp4nn_bench's
  /// CountingDispatcher overrides it.
  virtual bool scope_coalescable() const { return false; }

  // --- inter-operator DAG scheduling (optional capability) -----------------
  // Dispatchers that cannot overlap independent operators keep the serial
  // defaults: every op lands on the default stream in issue order, which
  // trivially respects every edge (the host issues ops in topological
  // order and the default stream is FIFO).

  /// Plan stream placement for a whole op DAG. Returns one placement per
  /// op. The default places everything on one default-stream chain.
  virtual std::vector<DagPlacement> plan_dag(const std::vector<DagOp>& ops) {
    return std::vector<DagPlacement>(ops.size());
  }

  /// Install the ambient binding for the next issued op or batch. No-op by
  /// default.
  virtual void bind_dag_op(const DagOpBinding& binding) { (void)binding; }

  /// Drop the ambient binding. No-op by default.
  virtual void clear_dag_op() {}
};

/// Naive-Caffe baseline: a single in-order queue (the default stream).
class SerialDispatcher final : public KernelDispatcher {
 public:
  explicit SerialDispatcher(scuda::Context& /*ctx*/) {}

  void begin_scope(const std::string&, std::size_t) override {}
  Lane task_lane(std::size_t) override { return Lane{gpusim::kDefaultStream, 0}; }
  int max_lanes() const override { return 1; }
  void end_scope() override {}
};

}  // namespace kern
