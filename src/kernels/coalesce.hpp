#pragma once
// CoalescingDispatcher: a transparent KernelDispatcher wrapper that cuts
// the host launch overhead of per-sample scopes by merging each lane's
// staged kernel chain into ONE simulated launch per stream.
//
// Why this matters: the simulator charges every launch_kernel call
// kernel_launch_overhead_us of *serial host* time (the cudaLaunchKernel
// analogue). A conv scope over a batch of 64 issues ~128 launches
// (im2col + fused GEMM per sample) — >600 us of pure host time per layer
// — which caps the serving hot path near 25k req/s no matter how large
// batches get. Coalescing reduces that to one launch per stream actually
// used by the scope (the analyzer's decision, typically 2–14), an order
// of magnitude less host time, while the device-side work is unchanged:
// the merged kernel's cost is the sum of its parts and its functor runs
// every staged functor in staging order.
//
// Correctness:
//  * Per-stream order is preserved exactly (stage buffers are keyed by
//    target stream and flushed in first-use order), and a stream's chain
//    was already FIFO — running the same host functors in the same order
//    on the same buffers is bit-identical.
//  * Only *steady* scopes coalesce: the wrapper asks the inner
//    dispatcher's scope_coalescable() at begin_scope, so profiling runs
//    (which need per-kernel tracker records for the analytical model)
//    and the serial/fixed baselines are never altered.
//  * The flush happens before the inner end_scope(), so the scope's join
//    barrier covers the merged launches.
//  * Fault injection sees one should_fail_launch() draw per merged
//    launch with the same degrade-to-default-stream semantics as
//    kern::Launcher.

#include <string>

#include "kernels/dispatch.hpp"
#include "kernels/launcher.hpp"

namespace kern {

class CoalescingDispatcher final : public KernelDispatcher {
 public:
  CoalescingDispatcher(scuda::Context& ctx, KernelDispatcher& inner)
      : ctx_(&ctx), inner_(&inner) {}

  /// The staging buffer to install as ExecContext::stager. Armed and
  /// disarmed by begin_scope/end_scope.
  Stager& stager() { return stager_; }

  void begin_scope(const std::string& scope, std::size_t num_tasks) override;
  Lane task_lane(std::size_t index) override { return inner_->task_lane(index); }
  int max_lanes() const override { return inner_->max_lanes(); }
  void end_scope() override;
  bool scope_coalescable() const override {
    return inner_->scope_coalescable();
  }

  std::vector<DagPlacement> plan_dag(const std::vector<DagOp>& ops) override {
    return inner_->plan_dag(ops);
  }
  void bind_dag_op(const DagOpBinding& binding) override {
    inner_->bind_dag_op(binding);
  }
  void clear_dag_op() override { inner_->clear_dag_op(); }

 private:
  scuda::Context* ctx_;
  KernelDispatcher* inner_;
  Stager stager_;
  std::string scope_;
};

}  // namespace kern
