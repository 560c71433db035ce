#pragma once
// Inter-operator DAG executor for a Net. Instead of issuing layers
// serially on one stream, NetDag derives a dependency DAG over the
// layer ops of each pass (edges = memory conflicts between blob
// buffers), asks the dispatcher to place independent chains on
// concurrent streams (plan_dag), and issues ops in spec order with
// cross-stream event waits on every DAG edge.
//
// Convergence invariance: the host still *issues* ops in spec order, so
// every host-side RNG draw (dropout masks, dataset shuffles) happens in
// the serial order; every memory conflict between ops becomes a DAG edge
// enforced by stream FIFO, an event wait, or the legacy default-stream
// barrier; and write-write chains keep their serial order. Execution is
// therefore conflict-serializable to the serial schedule and the math is
// bit-identical.
//
// The forward pass's fusion step additionally cuts simulated launch
// overhead without changing numerics:
//  * ReLU epilogue: an in-place ReLU whose only dependency is the
//    producing Convolution / InnerProduct GEMM is absorbed into that
//    GEMM's launch (the layer applies the identical elementwise math as
//    an epilogue; the ReLU op itself is skipped).
//  * Chain coalescing: a run of consecutive single-launch elementwise
//    ops, each depending only on its predecessor, is staged through a
//    kern::Stager and submitted as ONE merged launch whose functor
//    runs the staged functors in order.

#include <map>
#include <string>
#include <vector>

#include "minicaffe/net.hpp"

namespace mc {

class NetDag {
 public:
  /// One layer op of a pass. Ops are indexed in issue (spec) order for
  /// forward and reverse spec order for backward; `deps` always
  /// reference lower indices, so the index order is a topological order.
  struct Op {
    int layer = -1;           ///< index into Net::layers()
    std::string name;         ///< layer name
    std::string type;         ///< layer type
    std::string prefix;       ///< kernel-name prefix, e.g. "conv1/fwd"
    std::string scope;        ///< dispatcher scope it opens ("" if none)
    std::vector<int> deps;    ///< memory-conflict edges (raw)
    /// Alias-resolved deps: absorbed ops map to their producer, fused
    /// chain members to their chain head. Deduplicated, self-free.
    std::vector<int> effective_deps;
    gpusim::StreamId stream = gpusim::kDefaultStream;
    int chain = 0;
    int slot = 0;
    int num_slots = 1;
    std::vector<std::string> concurrent_scopes;
    /// ReLU folded into the producing GEMM as an epilogue; not issued.
    bool absorbed = false;
    int absorbed_into = -1;  ///< producer op index when absorbed
    /// Head op of the coalesced elementwise chain this op belongs to
    /// (== own index for the head itself); -1 when not in a chain.
    int fused_head = -1;
    bool needs_event = false;  ///< a cross-stream consumer waits on us
  };

  /// Executable-op view for timeline schedule checking
  /// (glpfuzz::check_op_schedule): one entry per op that actually issues
  /// kernels. A kernel belongs to the op when its name equals `prefix` or
  /// starts with `prefix + "/"`; fused-chain kernels carry the head op's
  /// prefix, and a ReLU absorbed as a GEMM epilogue contributes no
  /// kernels of its own (its span is vacuously ordered). `deps` index
  /// earlier entries of the same vector.
  struct ScheduledOp {
    std::string prefix;
    gpusim::StreamId stream = gpusim::kDefaultStream;
    std::vector<int> deps;
  };

  explicit NetDag(Net& net);

  /// DAG-scheduled passes (same observable numerics as Net's serial ones).
  void forward();
  void backward();

  const std::vector<Op>& forward_ops() const { return fwd_.ops; }
  /// Builds the backward pass lazily on first use.
  const std::vector<Op>& backward_ops();

  /// Producer layers whose GEMM absorbs a following in-place ReLU
  /// (layer name -> the ReLU's negative_slope).
  const std::map<std::string, float>& relu_epilogues() const {
    return relu_epilogues_;
  }

  std::vector<ScheduledOp> forward_schedule() const {
    return make_schedule(fwd_);
  }
  std::vector<ScheduledOp> backward_schedule();

 private:
  struct Pass {
    bool built = false;
    bool is_backward = false;
    std::vector<Op> ops;
  };

  void build_pass(Pass& pass, bool backward);
  void plan_fusion(Pass& pass);
  void place_ops(Pass& pass);
  void run_pass(Pass& pass);
  std::vector<ScheduledOp> make_schedule(const Pass& pass) const;

  Net* net_;
  Pass fwd_;
  Pass bwd_;
  std::map<std::string, float> relu_epilogues_;
};

}  // namespace mc
