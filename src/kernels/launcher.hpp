#pragma once
// The handle every kernel wrapper takes: which device, which stream,
// whether to run real math, and a name prefix that scopes kernels to the
// layer that launched them ("conv1/fwd/im2col"). The prefix is how the
// resource tracker and the benchmarks attribute kernels to layers —
// the paper notes offline profilers cannot do this (§1, challenge 1).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "kernels/dispatch.hpp"
#include "simcuda/context.hpp"

namespace kern {

/// Staging buffer for launch merging. While armed on a Launcher,
/// launch() *stages* each kernel under its target stream instead of
/// submitting it; the owner then calls flush(), which submits ONE
/// combined launch per stream whose functor runs that stream's staged
/// functors in order. Running the same functors in the same per-stream
/// order on the same buffers is bit-identical to the unmerged FIFO
/// execution — only the number of simulated launches (and the serial
/// host overhead each one charges) changes. Two owners arm it:
///  * the DAG scheduler's elementwise-chain fusion pass (a chain issues
///    on its head op's stream, so it forms one group);
///  * glp4nn::RuntimeScheduler inside each steady scope of a binding that
///    carries it (DagOpBinding::stager; one group per lane stream).
/// A long-lived stager (an InferenceServer's, one per server, shared by
/// every replica) keeps its groups and their buffers across flushes, so
/// a steady scope stages without allocating once the first few scopes
/// have sized them.
struct Stager {
  struct Staged {
    std::string name;
    gpusim::LaunchConfig config;
    gpusim::KernelCost cost;
    gpusim::DeviceEngine::WorkFn work;
  };
  struct Group {
    gpusim::StreamId stream = gpusim::kDefaultStream;
    std::vector<Staged> staged;
  };
  bool armed = false;
  /// groups[0, live) hold the current staging window in first-use order
  /// (flush submits streams in the order the window first touched them);
  /// groups past `live` are spent buffers kept for reuse, never flushed.
  std::vector<Group> groups;
  std::size_t live = 0;

  void stage(gpusim::StreamId stream, Staged s) {
    for (std::size_t i = 0; i < live; ++i) {
      if (groups[i].stream == stream) {
        groups[i].staged.push_back(std::move(s));
        return;
      }
    }
    if (live == groups.size()) groups.emplace_back();
    Group& g = groups[live++];
    g.stream = stream;
    g.staged.clear();  // drop the spent window's moved-from entries
    g.staged.push_back(std::move(s));
  }

  /// Submit every live group as one launch on its stream and empty the
  /// window. A lone staged kernel keeps its own name; a merged launch is
  /// named `<stem><count>`, takes the per-field max config and the summed
  /// cost. Each launch draws should_fail_launch() once and, like
  /// Launcher::launch, re-issues on the legacy default stream when it
  /// fails (a two-sided barrier, so submission order is preserved).
  void flush(scuda::Context& ctx, const std::string& stem);
};

struct Launcher {
  scuda::Context* ctx = nullptr;
  gpusim::StreamId stream = gpusim::kDefaultStream;
  ComputeMode mode = ComputeMode::kNumeric;
  std::string name_prefix;
  /// When set and armed, launches are staged per target stream instead
  /// of being submitted (see Stager).
  Stager* stager = nullptr;

  Launcher with_stream(gpusim::StreamId s) const {
    Launcher l = *this;
    l.stream = s;
    return l;
  }
  Launcher with_prefix(std::string prefix) const {
    Launcher l = *this;
    l.name_prefix = std::move(prefix);
    return l;
  }

  /// Launch a kernel; `work` is dropped in timing-only mode.
  ///
  /// Fault handling: when the context's injector fails the launch (the
  /// simulated analogue of cudaLaunchKernel returning an error), the
  /// launcher degrades to the serial path — it re-issues on the legacy
  /// default stream. That stream is a two-sided barrier (everything
  /// submitted before it completes first; everything submitted after
  /// waits for it), so the re-routed kernel still executes in global
  /// submission order and numerics stay identical to the fault-free run.
  std::uint64_t launch(const std::string& kernel_name,
                       const gpusim::LaunchConfig& config,
                       const gpusim::KernelCost& cost,
                       gpusim::DeviceEngine::WorkFn work) const {
    const std::string full =
        name_prefix.empty() ? kernel_name : name_prefix + "/" + kernel_name;
    if (stager != nullptr && stager->armed) {
      stager->stage(stream, {full, config, cost,
                             mode == ComputeMode::kNumeric
                                 ? std::move(work)
                                 : gpusim::DeviceEngine::WorkFn()});
      return 0;  // no correlation id — the merged launch gets one
    }
    const gpusim::StreamId target =
        ctx->faults().should_fail_launch() ? gpusim::kDefaultStream : stream;
    return ctx->device().launch_kernel(
        target, full, config, cost,
        mode == ComputeMode::kNumeric ? std::move(work)
                                      : gpusim::DeviceEngine::WorkFn());
  }
};

/// ceil-div helper used by every launch-config heuristic.
inline unsigned blocks_for(std::uint64_t work_items, unsigned block_size) {
  return static_cast<unsigned>((work_items + block_size - 1) / block_size);
}

}  // namespace kern
