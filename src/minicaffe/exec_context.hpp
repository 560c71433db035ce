#pragma once
// Execution environment a Net runs in: the simulated device, the kernel
// dispatcher (serial baseline or GLP4NN scheduler, analyzer-sized or
// fixed pool), the compute mode, and the deterministic RNG feeding
// fillers, dropout masks and data shuffling. Swapping only the dispatcher
// is how the paper's "GLP4NN-Caffe vs naive-Caffe" comparisons are run —
// everything else is bit-identical.

#include <map>
#include <string>

#include "common/rng.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/launcher.hpp"
#include "simcuda/context.hpp"

namespace mc {

struct ExecContext {
  scuda::Context* ctx = nullptr;
  kern::KernelDispatcher* dispatcher = nullptr;
  kern::ComputeMode mode = kern::ComputeMode::kNumeric;
  /// Kernel-fusion extension (paper §6 future work): fuse the per-sample
  /// bias-add into the convolution GEMM, saving one launch per sample.
  bool fuse_conv_bias = false;
  /// Training phase: dropout active, BatchNorm uses batch statistics.
  /// Flip to false for inference (Caffe's TEST phase).
  bool train = true;
  /// Forward-only serving mode: layers skip every gradient/solver scratch
  /// allocation and Net::backward() is rejected. Orthogonal to `train`
  /// (which controls phase behaviour, not memory).
  bool inference = false;
  /// Stream that non-scope kernels (whole-batch layers, data uploads) are
  /// launched on. Serving gives each in-flight batch its own home stream
  /// so batches overlap; training keeps the legacy default stream.
  gpusim::StreamId home_stream = gpusim::kDefaultStream;
  /// Inter-operator DAG scheduling: Net::forward/backward route through a
  /// NetDag that overlaps independent layer ops (inception branches) on
  /// concurrent stream chains instead of issuing layers serially.
  bool dag_schedule = false;
  /// Launch staging (see kern::Stager), armed by the NetDag fusion pass
  /// around a coalesced elementwise chain, or by the scheduler inside the
  /// steady scopes of a binding that carries the same stager (serving
  /// replicas hold their server's). Layers stay oblivious.
  kern::Stager* stager = nullptr;
  /// Producer layers whose GEMM absorbs the following in-place ReLU
  /// (layer name → the ReLU's negative_slope). Owned by the NetDag.
  const std::map<std::string, float>* fused_relu_epilogues = nullptr;
  glp::Rng rng{0x5eedULL};

  /// Negative slope of the ReLU this layer's GEMM should apply as an
  /// epilogue, or nullptr when none was fused in.
  const float* relu_epilogue(const std::string& layer) const {
    if (fused_relu_epilogues == nullptr) return nullptr;
    auto it = fused_relu_epilogues->find(layer);
    return it == fused_relu_epilogues->end() ? nullptr : &it->second;
  }

  kern::Launcher launcher() const { return launcher(home_stream); }

  kern::Launcher launcher(gpusim::StreamId stream) const {
    kern::Launcher l;
    l.ctx = ctx;
    l.stream = stream;
    l.mode = mode;
    l.stager = stager;
    return l;
  }

  bool numeric() const { return mode == kern::ComputeMode::kNumeric; }
};

}  // namespace mc
