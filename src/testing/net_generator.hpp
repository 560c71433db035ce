#pragma once
// Seeded generators for the schedule-correctness harness: random layer
// graphs, random devices (perturbations of the paper's Table-3 GPUs),
// random scheduler configurations, and the training, fleet and serving
// cases built from them. Everything is a pure function of the seed, so
// any failing fuzz case replays from one integer.
//
// Generated nets always contain at least one Convolution layer — conv
// and deconv are the scope-parallel layers, so a net without them never
// exercises the stream scheduler.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/runtime_scheduler.hpp"
#include "gpusim/device_props.hpp"
#include "minicaffe/net.hpp"
#include "serving/trace_gen.hpp"

namespace glpfuzz {

/// Knobs for the random net generator (defaults give small, fast nets).
struct NetGenOptions {
  int min_body_layers = 2;   ///< conv/pool/act stages between data and head
  int max_body_layers = 6;
  bool allow_branches = true;  ///< inception-style branch + Concat/Eltwise
  bool allow_deconv = true;
  int max_batch = 64;
  /// DAG-scheduling corpus: generate with random_dag_net (wide inception
  /// fan-outs, diamond skips, elementwise chains, auxiliary losses)
  /// instead of the mostly-linear random_net body.
  bool dag_corpus = false;
  int max_branches = 4;  ///< inception fan-out width (dag corpus only)
};

/// A random, valid, topologically-sorted training net: Data → random
/// body (convs, pools, activations, LRN, dropout, optional branch) →
/// InnerProduct → SoftmaxWithLoss. Batch sizes straddle the 32-slot
/// boundary so both bit-exact regimes are sampled.
mc::NetSpec random_net(glp::Rng& rng, const NetGenOptions& options = {});

/// A random, valid, forward-only *serving* net: Input (caller-filled
/// samples) → random conv body → InnerProduct → Softmax. No Data or loss
/// layers, so an InferenceSession can host it directly. The Input batch
/// size is a small ragged value in [1, 8] — the serving fuzzers rewrite
/// it per replica anyway, but partial batches get exercised either way.
mc::NetSpec random_inference_net(glp::Rng& rng,
                                 const NetGenOptions& options = {});

/// A random *branchy* training net for the DAG scheduler: GoogLeNet-style
/// inception units (2..max_branches parallel conv branches merged by
/// Concat), diamond skips (Eltwise sum of a transformed and a pass-through
/// path), in-place ReLUs directly after convs (GEMM-epilogue fusion
/// candidates), runs of stacked elementwise activations (chain-coalescing
/// candidates), and sometimes an auxiliary loss head (parallel losses).
/// Always topologically sorted; batch sizes straddle the 32-slot boundary.
mc::NetSpec random_dag_net(glp::Rng& rng, const NetGenOptions& options = {});

/// A random device: one of the catalogue GPUs with perturbed SM count,
/// per-SM thread/smem/block limits, concurrency degree, bandwidths and
/// launch latencies. Always satisfies the simulator's launch limits for
/// the kernels the layer zoo emits.
gpusim::DeviceProps random_device(glp::Rng& rng);

/// A random scheduler configuration over DispatchPolicy × strict_repro ×
/// fixed_streams × max_streams.
glp4nn::SchedulerOptions random_scheduler_options(glp::Rng& rng);

/// One fully-sampled differential-fuzz case.
struct FuzzCase {
  std::uint64_t seed = 0;
  mc::NetSpec net;
  gpusim::DeviceProps device;
  glp4nn::SchedulerOptions options;
  int iters = 2;  ///< training iterations per run
  bool dag = false;  ///< sampled from the dag corpus (random_dag_net)

  /// One-line human-readable description for logs.
  std::string summary() const;
};

/// Sample a complete case from a seed (net, device, scheduler options).
FuzzCase make_case(std::uint64_t seed, const NetGenOptions& options = {});

/// `spec` without its Dropout layers: each one is removed and, for the
/// non-in-place form, later references to its top are rewired to its
/// bottom. Every other layer is untouched.
mc::NetSpec strip_dropout(const mc::NetSpec& spec);

/// A fuzz case adjusted for the fleet corpus: Dropout stripped (masks are
/// drawn from each replica's private RNG, so replicas and the single-
/// device oracle would diverge) and scheduler options forced into the
/// bit-exact regime (strict_repro + round-robin) when the sampled batch
/// size would otherwise leave it.
FuzzCase make_fleet_case(std::uint64_t seed, const NetGenOptions& gen = {});

/// One fully-sampled serving case.
struct ServeCase {
  std::uint64_t seed = 0;
  std::vector<mc::NetSpec> nets;  ///< one tenant per net (1 or 2)
  gpusim::DeviceProps device;
  int max_batch = 8;     ///< subject-side batch size cap
  bool coalesce = false;  ///< subject-side lane coalescing
  int slots = 2;
  serving::TraceSpec trace;

  std::string summary() const;
};

/// Sample a complete serving case from a seed: random inference nets
/// (see random_inference_net), a random device, a random batch size cap
/// and a short random open-loop trace.
ServeCase make_serving_case(std::uint64_t seed,
                            const NetGenOptions& options = {});

}  // namespace glpfuzz
